//! Process-portable DAG shards.
//!
//! A worker's exploration streams transcripts into hash-consed
//! [`TreeDag`] shards whose internal steps are packed
//! [`sl_check::StepCode`]s — `u64`s embedding *process-local* interner
//! ids. Raw codes therefore must never cross a process boundary; the
//! wire carries each internal step's site-qualified label
//! ([`StepCode::wire_label`]) instead, and the receiving side re-interns
//! it. High-level events carry the spec's op/response payloads, encoded
//! through the [`WireSpec`] codec — a compact colon-joined rendering
//! with a fail-closed decoder.
//!
//! The worker symbolizes its shard before encoding
//! ([`TreeDag::symbolize`], which fail-closed-detects label
//! collisions), so the coordinator's decoded shard and the symbolized
//! local shards live in one label space and
//! [`TreeDag::merge`] dedupes them exactly as an in-process run would.
//!
//! Shard document (the `"shard"` field of a result frame):
//!
//! ```text
//! {"nodes":[[[step,child],...],...],"root":N,"transcripts":N}
//! step := ["i",proc,"label"]            internal step
//!       | ["inv",op_id,proc,"op"]       invocation event
//!       | ["rsp",op_id,proc,"resp"]     response event
//! ```
//!
//! Children precede parents in `nodes` (the [`TreeDag`] interning
//! invariant), which [`TreeDag::assemble`] re-verifies on decode.

use std::fmt::Write as _;

use sl_check::{NodeId, TreeDag, TreeStep};
use sl_sim::wire::{push_list, push_str, Fields, Json, Parser};
use sl_spec::types::AbaSpec;
use sl_spec::{AbaOp, AbaResp, Event, EventKind, OpId, ProcId, SeqSpec};

/// A sequential specification whose ops and responses can cross a
/// process boundary. An encoding may be any string — the wire escapes
/// what needs escaping ([`sl_sim::wire::push_str`]) — but
/// `decode(encode(x)) == x` must hold exactly; decoders are fail-closed
/// — an unknown encoding is an error, never a default. Ops and
/// responses must be `Send`: decoded shards hop threads on their way
/// into the coordinator sink.
pub trait WireSpec: SeqSpec<Op: Send, Resp: Send> {
    /// Encodes an invocation description.
    fn encode_op(op: &Self::Op) -> String;
    /// Decodes an invocation description.
    fn decode_op(s: &str) -> Result<Self::Op, String>;
    /// Encodes a response.
    fn encode_resp(r: &Self::Resp) -> String;
    /// Decodes a response.
    fn decode_resp(s: &str) -> Result<Self::Resp, String>;
}

/// Colon-joined codec for the ABA-detecting register over `u64` — the
/// spec the distributed benchmarks pin: `DWrite:5`, `DRead`, `Ack`,
/// `Value:5:1`, `Value:-:0` (`-` is the initial `⊥`).
impl WireSpec for AbaSpec<u64> {
    fn encode_op(op: &AbaOp<u64>) -> String {
        match op {
            AbaOp::DWrite(v) => format!("DWrite:{v}"),
            AbaOp::DRead => "DRead".to_string(),
        }
    }

    fn decode_op(s: &str) -> Result<AbaOp<u64>, String> {
        if s == "DRead" {
            return Ok(AbaOp::DRead);
        }
        if let Some(v) = s.strip_prefix("DWrite:") {
            return v
                .parse::<u64>()
                .map(AbaOp::DWrite)
                .map_err(|_| format!("aba op: bad DWrite value in {s:?}"));
        }
        Err(format!("aba op: unknown encoding {s:?}"))
    }

    fn encode_resp(r: &AbaResp<u64>) -> String {
        match r {
            AbaResp::Ack => "Ack".to_string(),
            AbaResp::Value(Some(v), flag) => format!("Value:{v}:{}", u8::from(*flag)),
            AbaResp::Value(None, flag) => format!("Value:-:{}", u8::from(*flag)),
        }
    }

    fn decode_resp(s: &str) -> Result<AbaResp<u64>, String> {
        if s == "Ack" {
            return Ok(AbaResp::Ack);
        }
        if let Some(rest) = s.strip_prefix("Value:") {
            let (value, flag) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("aba resp: unknown encoding {s:?}"))?;
            let flag = match flag {
                "0" => false,
                "1" => true,
                _ => return Err(format!("aba resp: bad flag in {s:?}")),
            };
            let value = if value == "-" {
                None
            } else {
                Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("aba resp: bad value in {s:?}"))?,
                )
            };
            return Ok(AbaResp::Value(value, flag));
        }
        Err(format!("aba resp: unknown encoding {s:?}"))
    }
}

/// Renders a DAG shard as a canonical document (see the module docs).
/// Call on a **symbolized** shard: symbolization collision-checks the
/// label space; encoding a raw packed shard would conflate any
/// colliding codes silently.
pub fn encode_dag<S: WireSpec>(dag: &TreeDag<S>) -> String {
    let mut b = String::with_capacity(64 * dag.unique_nodes().max(1));
    b.push_str("{\"nodes\":");
    push_list(&mut b, 0..dag.unique_nodes() as NodeId, |b, id| {
        push_list(b, dag.edges(id), |b, (step, child)| {
            match step {
                TreeStep::Internal(p, code) => {
                    let _ = write!(b, "[[\"i\",{},", p.0);
                    push_str(b, &code.wire_label());
                }
                TreeStep::Event(e) => {
                    let (tag, payload) = match &e.kind {
                        EventKind::Invoke(op) => ("inv", S::encode_op(op)),
                        EventKind::Respond(r) => ("rsp", S::encode_resp(r)),
                    };
                    let _ = write!(b, "[[\"{tag}\",{},{},", e.op.0, e.proc.0);
                    push_str(b, &payload);
                }
            }
            let _ = write!(b, "],{child}]");
        })
    });
    let _ = write!(
        b,
        ",\"root\":{},\"transcripts\":{}}}",
        dag.root(),
        dag.transcripts_ingested()
    );
    b
}

fn step_of<S: WireSpec>(v: &Json) -> Result<TreeStep<S>, String> {
    let Json::Arr(parts) = v else {
        return Err("shard step: expected an array".to_string());
    };
    let tag = match parts.first() {
        Some(Json::Str(t)) => t.as_str(),
        _ => return Err("shard step: missing tag".to_string()),
    };
    match tag {
        "i" => {
            if parts.len() != 3 {
                return Err("shard step: \"i\" takes [proc,label]".to_string());
            }
            let proc = parts[1].as_num("shard step proc")? as usize;
            let Json::Str(label) = &parts[2] else {
                return Err("shard step: label must be a string".to_string());
            };
            Ok(TreeStep::internal(ProcId(proc), label))
        }
        "inv" | "rsp" => {
            if parts.len() != 4 {
                return Err(format!("shard step: {tag:?} takes [op_id,proc,payload]"));
            }
            let op = OpId(parts[1].as_num("shard step op id")?);
            let proc = ProcId(parts[2].as_num("shard step proc")? as usize);
            let Json::Str(payload) = &parts[3] else {
                return Err("shard step: payload must be a string".to_string());
            };
            let kind = if tag == "inv" {
                EventKind::Invoke(S::decode_op(payload)?)
            } else {
                EventKind::Respond(S::decode_resp(payload)?)
            };
            Ok(TreeStep::Event(Event { op, proc, kind }))
        }
        other => Err(format!("shard step: unknown tag {other:?}")),
    }
}

/// Parses a shard document back into a [`TreeDag`]. Fail-closed: a
/// malformed step, a forward child reference, or an out-of-range root
/// is a named rejection.
pub fn decode_dag<S: WireSpec>(text: &str) -> Result<TreeDag<S>, String> {
    let doc = Parser::new(text, "shard").parse_document()?;
    let mut f = Fields::exact(doc, "shard", &["nodes", "root", "transcripts"])?;
    let nodes = f.array("nodes")?;
    let root =
        u32::try_from(f.num("root")?).map_err(|_| "shard: root id out of range".to_string())?;
    let transcripts = f.num("transcripts")? as usize;
    let mut node_edges: Vec<Vec<(TreeStep<S>, NodeId)>> = Vec::with_capacity(nodes.len());
    for node in &nodes {
        let Json::Arr(edges) = node else {
            return Err("shard: each node must be an edge array".to_string());
        };
        let mut out = Vec::with_capacity(edges.len());
        for edge in edges {
            let Json::Arr(pair) = edge else {
                return Err("shard: each edge must be a [step,child] pair".to_string());
            };
            if pair.len() != 2 {
                return Err("shard: each edge must be a [step,child] pair".to_string());
            }
            let step = step_of::<S>(&pair[0])?;
            let child = u32::try_from(pair[1].as_num("shard edge child")?)
                .map_err(|_| "shard: child id out of range".to_string())?;
            out.push((step, child));
        }
        node_edges.push(out);
    }
    TreeDag::assemble(node_edges, root, transcripts)
}

#[cfg(test)]
mod tests {
    use sl_check::{DagBuilder, RegSym, StepCode, StepKind, ValueId};

    use super::*;

    type Spec = AbaSpec<u64>;

    #[test]
    fn op_and_resp_codecs_round_trip_and_fail_closed() {
        let ops = [AbaOp::DWrite(5), AbaOp::DWrite(u64::MAX), AbaOp::DRead];
        for op in &ops {
            let enc = Spec::encode_op(op);
            assert!(enc
                .chars()
                .all(|c| c != '"' && c != '\\' && !c.is_control()));
            assert_eq!(&Spec::decode_op(&enc).expect("op"), op);
        }
        let resps = [
            AbaResp::Ack,
            AbaResp::Value(Some(9), true),
            AbaResp::Value(Some(0), false),
            AbaResp::Value(None, false),
            AbaResp::Value(None, true),
        ];
        for r in &resps {
            let enc = Spec::encode_resp(r);
            assert_eq!(&Spec::decode_resp(&enc).expect("resp"), r);
        }
        for bad in ["DWrit:5", "DWrite:", "DWrite:x", "", "dread"] {
            Spec::decode_op(bad).expect_err("fail-closed op");
        }
        for bad in ["Value:5", "Value:5:2", "Value::1", "Ackk", ""] {
            Spec::decode_resp(bad).expect_err("fail-closed resp");
        }
    }

    /// A shard with both step flavors: high-level events and internal
    /// base-object steps (packed, then symbolized as the worker would).
    fn sample_dag() -> TreeDag<Spec> {
        let reg = RegSym::intern("CODEC_R", "codec.rs", 1, 1);
        let step = |p: usize, v: u64| {
            TreeStep::<Spec>::Internal(
                ProcId(p),
                StepCode::pack(p, StepKind::Write, reg, ValueId::of(&v)),
            )
        };
        let inv = |op: u64, p: usize, o: AbaOp<u64>| {
            TreeStep::Event(Event {
                op: OpId(op),
                proc: ProcId(p),
                kind: EventKind::Invoke(o),
            })
        };
        let rsp = |op: u64, p: usize, r: AbaResp<u64>| {
            TreeStep::Event(Event {
                op: OpId(op),
                proc: ProcId(p),
                kind: EventKind::Respond(r),
            })
        };
        let b: DagBuilder<Spec> = DagBuilder::new();
        b.ingest(&[
            inv(1, 0, AbaOp::DWrite(5)),
            step(0, 5),
            rsp(1, 0, AbaResp::Ack),
            inv(2, 1, AbaOp::DRead),
            rsp(2, 1, AbaResp::Value(Some(5), false)),
        ]);
        b.ingest(&[
            inv(1, 0, AbaOp::DWrite(5)),
            step(0, 5),
            inv(2, 1, AbaOp::DRead),
            rsp(2, 1, AbaResp::Value(None, true)),
            rsp(1, 0, AbaResp::Ack),
        ]);
        b.finish().symbolize()
    }

    #[test]
    fn dag_shards_round_trip_bit_identically() {
        let dag = sample_dag();
        let text = encode_dag(&dag);
        let back = decode_dag::<Spec>(&text).unwrap_or_else(|e| panic!("decode: {e}"));
        assert_eq!(back.structural_hash(), dag.structural_hash());
        assert_eq!(back.unique_nodes(), dag.unique_nodes());
        assert_eq!(back.transcripts_ingested(), dag.transcripts_ingested());
        // And the re-encoding is byte-identical: the document is
        // canonical, so shard bytes are stable across hops.
        assert_eq!(encode_dag(&back), text);
    }

    #[test]
    fn decoded_shards_merge_with_local_symbolized_shards() {
        // The coordinator's merge correctness hinges on decoded remote
        // steps being *equal* to locally symbolized ones — same label
        // space, so `TreeDag::merge` dedupes across the process
        // boundary exactly as in-process.
        let local = sample_dag();
        let remote = decode_dag::<Spec>(&encode_dag(&sample_dag())).expect("decode");
        let merged = TreeDag::merge(vec![local, remote]);
        assert_eq!(merged.structural_hash(), sample_dag().structural_hash());
        assert_eq!(merged.unique_nodes(), sample_dag().unique_nodes());
    }

    #[test]
    fn malformed_shards_are_named_rejections() {
        let cases: &[(&str, &str)] = &[
            (
                "{\"nodes\":[],\"root\":0,\"transcripts\":0}",
                "out of range",
            ),
            (
                "{\"nodes\":[[[[\"i\",0,\"a\"],1]]],\"root\":0,\"transcripts\":1}",
                "precede",
            ),
            (
                "{\"nodes\":[[[[\"zz\",0,\"a\"],0]]],\"root\":0,\"transcripts\":1}",
                "unknown tag",
            ),
            (
                "{\"nodes\":[[[[\"inv\",1,0,\"Bogus:1\"],0]]],\"root\":0,\"transcripts\":1}",
                "unknown encoding",
            ),
            ("{\"nodes\":[0],\"root\":0,\"transcripts\":0}", "edge array"),
        ];
        for (doc, needle) in cases {
            let Err(err) = decode_dag::<Spec>(doc) else {
                panic!("{doc} was not rejected");
            };
            assert!(err.contains(needle), "{doc} -> {err}");
        }
    }
}
