//! The coordinator ↔ worker wire protocol.
//!
//! # Framing
//!
//! Each frame on a pipe is a *length-prefixed record*:
//!
//! ```text
//! <decimal byte length>\n
//! <canonical-compact JSON document>\n
//! ```
//!
//! The length covers the JSON document only (not the trailing
//! newline). A reader therefore never has to scan for a terminator
//! inside the document, and a process killed mid-write leaves an
//! unmistakably torn record: the length promises more bytes than the
//! pipe delivers.
//!
//! # Documents
//!
//! Every frame document is written in the one grammar of
//! [`sl_sim::wire`] (UTF-8 strings, unsigned integers, duplicate-key
//! rejection, fail-closed parsing) with a leading FNV-1a-64 `checksum`
//! over the rest of the document and a `version`/`frame` pair:
//!
//! ```text
//! {"checksum":N,"version":4,"frame":"hello","workload":...,"mode":...,"pid":N}
//! {"checksum":N,"version":4,"frame":"task","task":N,"prefix":[...],
//!  "accesses":[{"reg":N,"kind":"k"},...],"sleep":N,"floor":N}
//! {"checksum":N,"version":4,"frame":"heartbeat","task":N}
//! {"checksum":N,"version":4,"frame":"result","task":N,
//!  "counters":{"runs":N,"cut_runs":N,"pruned":N,"retried":N,"quarantined":N},
//!  "poisoned":[{"prefix":[...],"attempts":N,"message":"..."},...],
//!  "escapes":[{"depth":N,"initials":[...],
//!              "seq":[{"proc":P,"reg":N,"kind":"k"},...]},...],
//!  "shard":{...}}
//! {"checksum":N,"version":4,"frame":"shutdown"}
//! ```
//!
//! An escape is a backtrack demand the subtree raised below its floor:
//! its `seq` is nonempty — the whole reversing continuation under
//! `OptimalDpor`, its first step otherwise — and its first process is
//! among the weak `initials`.
//!
//! A task frame carries a [`sl_sim::FrozenTask`] and a result frame a
//! [`sl_sim::TaskResult`], the records the engine itself delegates and
//! joins. Their pieces — accesses, steps, task fields, counters, poison
//! reports, escapes — render and parse through sl-sim's functions, the
//! ones checkpoints use, so both formats spell them alike. A result's
//! `capped` and `drained` flags never cross: a worker runs uncapped
//! and holds no budget.
//!
//! [`Frame::parse`] verifies the checksum before anything is
//! interpreted, then every field: lease ids are nonzero, a task
//! satisfies the same invariants a checkpointed task does
//! ([`sl_sim::FrozenTask::check`]), and an escape names processes
//! inside the sleep-mask universe, with a nonempty sequence whose first
//! process is among its initials ([`sl_sim::Escape::from_json`]). Last, the
//! received bytes must be exactly [`Frame::render`] of the parsed
//! frame, shard included, so a torn, doctored, reflowed or
//! version-skewed frame is a named rejection, never a silently
//! different task. Strings cross losslessly: a quarantined subtree's
//! panic message arrives as written, whatever characters it holds.

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use sl_sim::wire::{
    fnv1a64, ident_ok, non_canonical, push_list, push_str, seal_checksum, Fields, Json, Parser,
};
use sl_sim::{Counters, Escape, FrozenTask, PoisonReport, TaskResult};

/// The supported frame format version.
pub const FRAME_VERSION: u64 = 4;

/// Upper bound on one frame's document length: a length prefix beyond
/// this is rejected before any allocation (a corrupted prefix must not
/// look like a 10-exabyte read).
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// One protocol message. See the module docs for the wire shapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Worker → coordinator handshake; the coordinator refuses a fleet
    /// member built for a different workload or prune mode.
    Hello {
        /// Pinned workload name.
        workload: String,
        /// `PruneMode::name()` of the worker's explorer.
        mode: String,
        /// Worker process id (telemetry only).
        pid: u64,
    },
    /// Coordinator → worker: explore this frozen subtree.
    Task {
        /// Lease id (coordinator-unique, nonzero).
        task: u64,
        /// The frozen subtree.
        spec: FrozenTask,
    },
    /// Worker → coordinator: still alive on this lease.
    Heartbeat {
        /// The lease being renewed.
        task: u64,
    },
    /// Worker → coordinator: the lease's completed exploration.
    Result {
        /// The lease this result settles.
        task: u64,
        /// Counters, quarantine reports and escapes of the explored
        /// subtree (`capped` and `drained` are always `false`).
        result: TaskResult,
        /// The subtree's symbolized DAG shard, as a canonical JSON
        /// document (see [`crate::codec::encode_dag`]).
        shard: String,
    },
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

impl Frame {
    /// The frame's canonical document, checksum sealed.
    pub fn render(&self) -> String {
        let mut b = String::with_capacity(128);
        let _ = write!(
            b,
            "{{\"version\":{FRAME_VERSION},\"frame\":\"{}\"",
            self.kind_name()
        );
        match self {
            Frame::Hello {
                workload,
                mode,
                pid,
            } => {
                assert!(
                    ident_ok(workload) && ident_ok(mode),
                    "hello identities must be identifiers (fail-closed)"
                );
                b.push_str(",\"workload\":");
                push_str(&mut b, workload);
                b.push_str(",\"mode\":");
                push_str(&mut b, mode);
                let _ = write!(b, ",\"pid\":{pid}");
            }
            Frame::Task { task, spec } => {
                let _ = write!(b, ",\"task\":{task},");
                spec.push_fields(&mut b);
            }
            Frame::Heartbeat { task } => {
                let _ = write!(b, ",\"task\":{task}");
            }
            Frame::Result {
                task,
                result: r,
                shard,
            } => {
                let _ = write!(b, ",\"task\":{task},\"counters\":");
                r.counters.push_json(&mut b);
                b.push_str(",\"poisoned\":");
                push_list(&mut b, &r.poisoned, |b, p| p.push_json(b));
                b.push_str(",\"escapes\":");
                push_list(&mut b, &r.escapes, |b, e| e.push_json(b));
                // Already a canonical document (codec-produced).
                b.push_str(",\"shard\":");
                b.push_str(shard);
            }
            Frame::Shutdown => {}
        }
        b.push('}');
        seal_checksum(&b)
    }

    /// The frame kind's wire name (`"task"`, `"result"`, ...).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Task { .. } => "task",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::Result { .. } => "result",
            Frame::Shutdown => "shutdown",
        }
    }

    /// Parses and verifies one frame document. Fail-closed: a torn
    /// document, a checksum mismatch, a version skew, a duplicate or
    /// unknown field, a malformed payload, or bytes that are not the
    /// frame's canonical rendering is a named rejection.
    pub fn parse(text: &str) -> Result<Frame, String> {
        let Json::Obj(mut fields) = Parser::new(text, "frame").parse_document()? else {
            return Err("frame: expected an object".to_string());
        };
        // The checksum must lead (canonical position) and covers the
        // canonical rendering of everything after it.
        if fields.first().map(|(k, _)| k.as_str()) != Some("checksum") {
            return Err("frame: missing leading \"checksum\" field".to_string());
        }
        let claimed = fields.remove(0).1.as_num("checksum")?;
        let body = Json::Obj(fields);
        let mut canonical = String::with_capacity(text.len());
        body.render(&mut canonical);
        let actual = fnv1a64(canonical.as_bytes());
        if claimed != actual {
            return Err(format!(
                "frame checksum mismatch: header says {claimed}, body hashes to {actual} \
                 (torn or doctored frame?)"
            ));
        }
        let mut f = Fields::new(body, "frame")?;
        let version = f.num("version")?;
        if version != FRAME_VERSION {
            return Err(format!(
                "unsupported frame version {version} (this build speaks {FRAME_VERSION})"
            ));
        }
        let kind = f.string("frame")?;
        let frame = match kind.as_str() {
            "hello" => {
                f.allow(&["workload", "mode", "pid"])?;
                let workload = f.string("workload")?;
                let mode = f.string("mode")?;
                if !ident_ok(&workload) || !ident_ok(&mode) {
                    return Err("hello: identities must be identifiers".to_string());
                }
                Frame::Hello {
                    workload,
                    mode,
                    pid: f.num("pid")?,
                }
            }
            "task" => {
                f.allow(&["task", "prefix", "accesses", "sleep", "floor"])?;
                let task = lease_of(&mut f, "task")?;
                let spec = FrozenTask::take_fields(&mut f)?;
                spec.check().map_err(|e| format!("task frame: {e}"))?;
                Frame::Task { task, spec }
            }
            "heartbeat" => {
                f.allow(&["task"])?;
                Frame::Heartbeat {
                    task: lease_of(&mut f, "heartbeat")?,
                }
            }
            "result" => {
                f.allow(&["task", "counters", "poisoned", "escapes", "shard"])?;
                let task = lease_of(&mut f, "result")?;
                let result = TaskResult {
                    counters: Counters::from_json(f.take("counters")?)?,
                    capped: false,
                    drained: false,
                    poisoned: f
                        .array("poisoned")?
                        .into_iter()
                        .map(PoisonReport::from_json)
                        .collect::<Result<_, _>>()?,
                    escapes: f
                        .array("escapes")?
                        .into_iter()
                        .map(Escape::from_json)
                        .collect::<Result<_, _>>()?,
                };
                let mut shard = String::new();
                f.take("shard")?.render(&mut shard);
                Frame::Result {
                    task,
                    result,
                    shard,
                }
            }
            "shutdown" => {
                f.allow(&[])?;
                Frame::Shutdown
            }
            other => return Err(format!("frame: unknown frame kind {other:?}")),
        };
        if frame.render() != text {
            return Err(non_canonical("frame"));
        }
        Ok(frame)
    }
}

/// A frame's lease id: coordinator-unique and nonzero.
fn lease_of(f: &mut Fields, kind: &str) -> Result<u64, String> {
    match f.num("task")? {
        0 => Err(format!(
            "{kind} frame: lease id 0 is reserved (lease ids are nonzero)"
        )),
        id => Ok(id),
    }
}

// ---------------------------------------------------------------------
// Pipe framing
// ---------------------------------------------------------------------

/// Writes one rendered frame document as a length-prefixed record and
/// flushes (a buffered, unflushed frame is indistinguishable from a
/// hung worker on the far side).
pub fn write_frame(w: &mut impl Write, text: &str) -> std::io::Result<()> {
    w.write_all(text.len().to_string().as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(text.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one length-prefixed frame document. `Ok(None)` on clean EOF
/// (the peer closed the pipe *between* records); anything short or
/// malformed mid-record is an error — a process killed mid-write must
/// surface as a torn frame, never as a quiet end-of-stream.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<String>, String> {
    let mut header = String::new();
    match r.read_line(&mut header) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(format!("frame header read failed: {e}")),
    }
    let header = header.trim_end_matches('\n');
    let len: usize = header
        .trim()
        .parse()
        .map_err(|_| format!("frame header is not a length: {header:?} (torn frame?)"))?;
    if len > MAX_FRAME_BYTES {
        return Err(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap (corrupt header?)"
        ));
    }
    let mut body = vec![0u8; len];
    let mut read = 0;
    while read < len {
        match std::io::Read::read(r, &mut body[read..]) {
            Ok(0) => {
                return Err(format!(
                    "torn frame: header promised {len} bytes, the pipe delivered {read}"
                ))
            }
            Ok(n) => read += n,
            Err(e) => return Err(format!("frame body read failed: {e}")),
        }
    }
    let mut nl = [0u8; 1];
    match std::io::Read::read(r, &mut nl) {
        Ok(1) if nl[0] == b'\n' => {}
        Ok(_) => return Err("torn frame: missing record terminator".to_string()),
        Err(e) => return Err(format!("frame terminator read failed: {e}")),
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| "frame body is not UTF-8 (torn or doctored frame?)".to_string())
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use sl_mem::SmallRng;
    use sl_sim::{AccessKind, Checkpoint, CkptNext, CkptNode, PendingAccess, RegId};

    use super::*;

    fn acc(reg: u32, kind: AccessKind) -> PendingAccess {
        PendingAccess {
            reg: RegId(reg),
            kind,
        }
    }

    fn sample_task() -> Frame {
        Frame::Task {
            task: 7,
            spec: FrozenTask {
                prefix: vec![0, 2, 1, 1],
                accesses: vec![acc(3, AccessKind::Write), acc(0, AccessKind::Rmw)],
                sleep: 0b101,
                floor: 2,
            },
        }
    }

    fn sample_result() -> Frame {
        Frame::Result {
            task: 7,
            result: TaskResult {
                counters: Counters {
                    runs: 41,
                    cut_runs: 3,
                    pruned: 17,
                    retried: 1,
                    quarantined: 1,
                },
                capped: false,
                drained: false,
                poisoned: vec![PoisonReport {
                    prefix: vec![0, 2],
                    attempts: 3,
                    message: "panicked at 'boom'".to_string(),
                }],
                escapes: vec![
                    Escape {
                        depth: 4,
                        initials: vec![0, 2],
                        seq: vec![
                            (0, acc(5, AccessKind::Read)),
                            (2, acc(5, AccessKind::Write)),
                        ],
                    },
                    Escape {
                        depth: 9,
                        initials: vec![0],
                        seq: vec![(0, acc(1, AccessKind::Write))],
                    },
                ],
            },
            shard: "{\"nodes\":[[]],\"root\":0,\"transcripts\":0}".to_string(),
        }
    }

    fn all_kinds() -> Vec<Frame> {
        vec![
            Frame::Hello {
                workload: "aba_mixed3".to_string(),
                mode: "SourceDpor".to_string(),
                pid: 4242,
            },
            sample_task(),
            Frame::Heartbeat { task: 9 },
            sample_result(),
            Frame::Shutdown,
        ]
    }

    // -- wire-format evolution: render -> parse -> render byte identity

    #[test]
    fn every_frame_kind_round_trips_byte_identically() {
        for frame in all_kinds() {
            let text = frame.render();
            let parsed =
                Frame::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", frame.kind_name()));
            assert_eq!(parsed, frame, "{} value round-trip", frame.kind_name());
            assert_eq!(
                parsed.render(),
                text,
                "{} byte-identity round-trip",
                frame.kind_name()
            );
        }
    }

    // -- doctored frames: every corruption is a named rejection

    #[test]
    fn checksum_flip_is_rejected() {
        let text = sample_task().render();
        // Flip one digit inside the body (the task id), leaving the
        // sealed checksum stale.
        let doctored = text.replace("\"task\":7", "\"task\":8");
        assert_ne!(doctored, text);
        let err = Frame::parse(&doctored).expect_err("stale checksum");
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains("torn or doctored"), "{err}");
    }

    #[test]
    fn version_skew_is_rejected_by_name() {
        let body = "{\"version\":3,\"frame\":\"shutdown\"}";
        let sealed = sl_sim::wire::seal_checksum(body);
        let err = Frame::parse(&sealed).expect_err("version skew");
        assert!(err.contains("unsupported frame version 3"), "{err}");
        assert!(err.contains("this build speaks 4"), "{err}");
    }

    #[test]
    fn duplicate_fields_are_rejected() {
        let body = "{\"version\":4,\"frame\":\"heartbeat\",\"task\":1,\"task\":1}";
        let sealed = sl_sim::wire::seal_checksum(body);
        let err = Frame::parse(&sealed).expect_err("duplicate field");
        assert!(err.contains("duplicate key"), "{err}");
    }

    #[test]
    fn unknown_fields_and_kinds_are_rejected() {
        let body = "{\"version\":4,\"frame\":\"heartbeat\",\"task\":1,\"zeal\":3}";
        let err = Frame::parse(&sl_sim::wire::seal_checksum(body)).expect_err("unknown field");
        assert!(err.contains("unknown field \"zeal\""), "{err}");

        let body = "{\"version\":4,\"frame\":\"gossip\"}";
        let err = Frame::parse(&sl_sim::wire::seal_checksum(body)).expect_err("unknown kind");
        assert!(err.contains("unknown frame kind \"gossip\""), "{err}");
    }

    #[test]
    fn missing_or_misplaced_checksum_is_rejected() {
        let err = Frame::parse("{\"version\":4,\"frame\":\"shutdown\"}").expect_err("no checksum");
        assert!(err.contains("missing leading \"checksum\""), "{err}");
    }

    #[test]
    fn hello_identities_are_fail_closed() {
        let body =
            "{\"version\":4,\"frame\":\"hello\",\"workload\":\"a b\",\"mode\":\"m\",\"pid\":1}";
        let err = Frame::parse(&sl_sim::wire::seal_checksum(body)).expect_err("bad identity");
        assert!(err.contains("identities must be identifiers"), "{err}");
    }

    /// A result frame quarantining one subtree with `message`.
    fn poisoned_result(message: &str) -> Frame {
        let Frame::Result {
            mut result, shard, ..
        } = sample_result()
        else {
            unreachable!()
        };
        result.poisoned[0].message = message.to_string();
        Frame::Result {
            task: 1,
            result,
            shard,
        }
    }

    fn assert_message_round_trips(message: &str) {
        let frame = poisoned_result(message);
        let text = frame.render();
        let parsed = Frame::parse(&text).unwrap_or_else(|e| panic!("{message:?}: {e}"));
        assert_eq!(parsed, frame, "{message:?} must cross the wire unchanged");
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn diagnostic_text_round_trips_losslessly() {
        assert_message_round_trips("tab\there \"and\" back\\slash\nline two\r\u{1}");
    }

    #[test]
    fn utf8_diagnostics_round_trip_exactly() {
        // The explorer's own fail-closed race diagnostic carries an em
        // dash; read byte-wise as Latin-1 it became two C1 control
        // characters and the parse panicked in the checksum re-render.
        assert_message_round_trips(
            "static conflict matrix failed closed: dynamic Write/Read race on X (op pair \
             \"DWrite\"/\"DRead\") is not predicted by the certificate — the sl-analyze \
             footprint probe missed a conflicting access path",
        );
        assert_message_round_trips("café");
    }

    /// A string drawn from the characters the escape rules treat
    /// specially: quotes, backslashes, C0 and C1 controls, non-ASCII
    /// and non-BMP characters.
    fn random_text(rng: &mut SmallRng) -> String {
        let len = rng.gen_range(12);
        (0..len)
            .map(|_| match rng.gen_range(7) {
                0 => *rng.choose(&['"', '\\', '\r', '\t', '\n']),
                1 => char::from_u32(rng.gen_range(0x20) as u32).unwrap(),
                2 => char::from_u32(0x80 + rng.gen_range(0x20) as u32).unwrap(),
                3 => *rng.choose(&['é', '—', 'ß', '€', '\u{7f}']),
                4 => *rng.choose(&['😀', '𝄞', '\u{10ffff}']),
                _ => char::from(b' ' + rng.gen_range(95) as u8),
            })
            .collect()
    }

    #[test]
    fn randomized_strings_round_trip_through_poisoned_messages() {
        let mut rng = SmallRng::new(0x5eed_f4a3);
        for _ in 0..500 {
            assert_message_round_trips(&random_text(&mut rng));
        }
    }

    fn random_access(rng: &mut SmallRng) -> PendingAccess {
        let reg = match rng.gen_range(3) {
            0 => u32::MAX,
            1 => rng.next_u64() as u32,
            _ => rng.gen_range(8) as u32,
        };
        let kinds = [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Rmw,
            AccessKind::Local,
        ];
        acc(reg, *rng.choose(&kinds))
    }

    fn random_procs(rng: &mut SmallRng, max_len: usize) -> Vec<usize> {
        let len = rng.gen_range(max_len + 1);
        (0..len).map(|_| rng.gen_range(64)).collect()
    }

    fn random_task(rng: &mut SmallRng) -> FrozenTask {
        let floor = 1 + rng.gen_range(4);
        let mut prefix = random_procs(rng, 2);
        prefix.extend((0..floor).map(|_| rng.gen_range(64)));
        FrozenTask {
            prefix,
            accesses: (0..floor).map(|_| random_access(rng)).collect(),
            sleep: rng.next_u64(),
            floor,
        }
    }

    /// An escape shaped as the engine raises them: a nonempty sequence
    /// whose first process is among the initials.
    fn random_escape(rng: &mut SmallRng) -> Escape {
        let first = rng.gen_range(64);
        let mut initials = random_procs(rng, 2);
        initials.insert(rng.gen_range(initials.len() + 1), first);
        let procs = [vec![first], random_procs(rng, 3)].concat();
        Escape {
            depth: rng.gen_range(1 << 20),
            initials,
            seq: procs.into_iter().map(|p| (p, random_access(rng))).collect(),
        }
    }

    fn random_result(rng: &mut SmallRng) -> TaskResult {
        let mut n = || rng.next_u64() >> rng.gen_range(64);
        let counters = Counters {
            runs: n(),
            cut_runs: n(),
            pruned: n(),
            retried: n(),
            quarantined: n(),
        };
        TaskResult {
            counters,
            capped: false,
            drained: false,
            poisoned: (0..rng.gen_range(3))
                .map(|_| PoisonReport {
                    prefix: random_procs(rng, 5),
                    attempts: rng.next_u64() as u32,
                    message: random_text(rng),
                })
                .collect(),
            escapes: (0..rng.gen_range(4)).map(|_| random_escape(rng)).collect(),
        }
    }

    /// A one-node checkpoint carrying `task`, `counters` and the
    /// escapes' sequences as demands.
    fn checkpoint_of(task: &FrozenTask, result: &TaskResult) -> Checkpoint {
        Checkpoint {
            workload: "random".to_string(),
            mode: "OptimalDpor".to_string(),
            workers: 1,
            stem_len: 0,
            counters: result.counters,
            next: CkptNext {
                tail: vec![],
                sleep: 0,
            },
            spine: vec![CkptNode {
                backtrack: 1,
                runnable: vec![0],
                pending: vec![task.accesses[0]],
                demands: result.escapes.iter().map(|e| e.seq.clone()).collect(),
                tasks: vec![task.clone()],
                ..CkptNode::default()
            }],
        }
    }

    /// Render -> parse -> render over random frozen tasks, escapes,
    /// counters and poison reports, through frames and checkpoints:
    /// value-equal and byte-identical in both formats, and a task's
    /// fields spelled alike in each.
    #[test]
    fn random_records_round_trip_through_frames_and_checkpoints() {
        let mut rng = SmallRng::new(0x0f20_2e77);
        for lease in 1..=500 {
            let spec = random_task(&mut rng);
            let result = random_result(&mut rng);
            let ckpt = checkpoint_of(&spec, &result);
            let task_frame = Frame::Task {
                task: lease,
                spec: spec.clone(),
            };
            for frame in [
                task_frame.clone(),
                Frame::Result {
                    task: lease,
                    result,
                    shard: "{}".to_string(),
                },
            ] {
                let text = frame.render();
                let parsed = Frame::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
                assert_eq!(parsed, frame);
                assert_eq!(parsed.render(), text);
            }
            let text = ckpt.render();
            let parsed = Checkpoint::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, ckpt);
            assert_eq!(parsed.render(), text);
            let mut fields = String::new();
            spec.push_fields(&mut fields);
            assert!(task_frame.render().ends_with(&format!(",{fields}}}")));
            assert!(text.contains(&format!("\"tasks\":[{{{fields}}}]")));
        }
    }

    /// The doctored-frame battery for what the tests above do not
    /// cover. Each row edits the first `from` in the rendered
    /// `all_kinds()[i]` to `to`, reseals it under a fresh checksum (so
    /// only the edit is at fault) and names the diagnostic that must
    /// reject it.
    #[test]
    fn every_doctored_frame_is_rejected_by_name() {
        let frames: Vec<String> = all_kinds().iter().map(Frame::render).collect();
        #[rustfmt::skip]
        let rows = [
            (4, r#""version":4,"frame":"shutdown""#, r#""frame":"shutdown","version":4"#, "non-canonical frame"),
            (2, r#""task":9"#, r#""task":0"#, "heartbeat frame: lease id 0"),
            (1, r#""task":7"#, r#""task":0"#, "task frame: lease id 0"),
            (3, r#""task":7"#, r#""task":0"#, "result frame: lease id 0"),
            (1, r#",{"reg":0,"kind":"rmw"}]"#, "]", "1 ghost accesses but floor 2"),
            (1, r#""floor":2"#, r#""floor":0"#, "floor 0 is outside its prefix"),
            (1, "[0,2,1,1]", "[0]", "floor 2 is outside its prefix (length 1)"),
            (1, "[0,2,1,1]", "[0,64,1,1]", "task frame: process index out of range"),
            (1, r#""rmw""#, r#""fetch_add""#, r#"unknown access kind "fetch_add""#),
            (3, r#"{"proc":0,"reg":5,"kind":"read"}"#, r#"{"proc":0,"reg":5}"#, r#"escape step: missing required field "kind""#),
            (3, r#""initials":[0,2]"#, r#""initials":[0,64]"#, "escape: process index out of range"),
            (3, r#"{"proc":2,"reg":5"#, r#"{"proc":66,"reg":5"#, "escape: process index out of range"),
            (3, r#""initials":[0,2]"#, r#""initials":[2]"#, "escape: initials [2] lack the sequence's first process 0"),
            (3, r#""seq":[{"proc":0,"reg":1,"kind":"write"}]"#, r#""seq":[]"#, "escape: empty seq"),
            (3, r#""counters":{"runs":41,"#, r#""counters":{"#, r#"counters: missing required field "runs""#),
        ];
        for (i, from, to, needle) in rows {
            let text = &frames[i];
            assert!(text.contains(from), "{from} is not in frame {i}");
            let body = format!("{{{}", &text[text.find(',').unwrap() + 1..]);
            let doctored = sl_sim::wire::seal_checksum(&body.replacen(from, to, 1));
            let err =
                Frame::parse(&doctored).expect_err(&format!("{from} -> {to} must be rejected"));
            assert!(
                err.contains(needle),
                "{from} -> {to}: {err:?} lacks {needle:?}"
            );
        }
        // Reflowed bytes keep their checksum valid: only the canonical
        // rule can tell.
        let err = Frame::parse(&frames[2].replace(',', ", ")).unwrap_err();
        assert!(err.contains("non-canonical frame"), "{err}");
    }

    // -- pipe framing: records, EOF, torn reads

    #[test]
    fn pipe_records_round_trip_and_signal_clean_eof() {
        let mut buf = Vec::new();
        for frame in all_kinds() {
            write_frame(&mut buf, &frame.render()).expect("write");
        }
        let mut r = Cursor::new(buf);
        for frame in all_kinds() {
            let text = read_frame(&mut r).expect("read").expect("record");
            assert_eq!(Frame::parse(&text).expect("parse"), frame);
        }
        assert_eq!(read_frame(&mut r).expect("eof"), None);
    }

    #[test]
    fn torn_records_are_named_never_quiet_eof() {
        // A worker killed mid-write leaves half a record: the length
        // prefix promises bytes that never arrive.
        let text = sample_task().render();
        let full = format!("{}\n{}\n", text.len(), text);
        let half = &full.as_bytes()[..full.len() / 2];
        let mut r = Cursor::new(half.to_vec());
        let err = read_frame(&mut r).expect_err("torn");
        assert!(err.contains("torn frame"), "{err}");
        assert!(
            err.contains(&format!("header promised {}", text.len())),
            "{err}"
        );

        // Garbage where the length prefix should be.
        let mut r = Cursor::new(b"not-a-length\nxxx\n".to_vec());
        let err = read_frame(&mut r).expect_err("bad header");
        assert!(err.contains("not a length"), "{err}");

        // A corrupted prefix must not look like a huge allocation.
        let mut r = Cursor::new(format!("{}\n", MAX_FRAME_BYTES + 1).into_bytes());
        let err = read_frame(&mut r).expect_err("cap");
        assert!(err.contains("exceeds"), "{err}");

        // A record missing its terminator is torn, not short.
        let mut buf = format!("{}\n{}", text.len(), text).into_bytes();
        let mut r = Cursor::new(std::mem::take(&mut buf));
        let err = read_frame(&mut r).expect_err("no terminator");
        assert!(err.contains("missing record terminator"), "{err}");
    }
}
