//! The warm-replay pool: one world + event log + transcript buffer per
//! worker, reset between schedules.
//!
//! Every pooled exploration harness needs the same ordering-sensitive
//! idiom: reset the world *and* the log before rebuilding programs,
//! run, convert the transcript into a reused buffer, recycle the
//! outcome's allocations. [`ReplayPool`] owns that contract once, so
//! harness contexts (which differ only in the object under test and
//! the transcript sink) cannot get the ordering wrong.

use sl_check::{DagBuilder, DagShards, TreeStep};
use sl_spec::SeqSpec;

use crate::explore::{DetachedShard, ReplayCtx};
use crate::log::EventLog;
use crate::sched::Scheduler;
use crate::world::{Program, RunConfig, SimWorld};

/// A reusable replay engine over one warm [`SimWorld`]: build the world
/// (and the object under test, which the caller keeps next to the
/// pool) once, then [`ReplayPool::replay`] per schedule.
pub struct ReplayPool<S: SeqSpec> {
    world: SimWorld,
    log: EventLog<S>,
    transcript: Vec<TreeStep<S>>,
    used: bool,
}

impl<S: SeqSpec> ReplayPool<S> {
    /// Wraps a freshly built world (allocate registers and build the
    /// object under test against `world.mem()` *before* the first
    /// replay).
    pub fn new(world: SimWorld) -> Self {
        let log = EventLog::new(&world);
        ReplayPool {
            world,
            log,
            transcript: Vec::new(),
            used: false,
        }
    }

    /// The pooled world.
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// The pooled event log (pass to program builders).
    pub fn log(&self) -> &EventLog<S> {
        &self.log
    }

    /// Runs one schedule: resets world and log (after the first use),
    /// rebuilds the programs via `programs` (handles must be re-created
    /// there — per-process state does not survive a reset), runs under
    /// `scheduler`, and leaves the run's transcript in
    /// [`ReplayPool::transcript`] (a buffer reused across replays). The
    /// outcome's trace buffers are recycled into the world.
    pub fn replay(
        &mut self,
        programs: impl FnOnce(&EventLog<S>) -> Vec<Program>,
        scheduler: &mut dyn Scheduler,
        step_budget: u64,
    ) {
        if self.used {
            self.world.reset();
            self.log.reset();
        }
        self.used = true;
        let programs = programs(&self.log);
        let out = self
            .world
            .run_with(programs, scheduler, step_budget, RunConfig::traced());
        self.log.transcript_into(&out, &mut self.transcript);
        self.world.recycle(out);
    }

    /// The most recent replay's transcript.
    pub fn transcript(&self) -> &[TreeStep<S>] {
        &self.transcript
    }
}

/// Couples any per-worker replay state with per-subtree
/// [`DagShards`], wiring the [`ReplayCtx`] subtree hooks to the shard
/// stack exactly once — harness contexts wrap their pool in this
/// instead of each hand-writing the forwarding impl (where a missed
/// forward would silently leave the trait's defaults and unbalance the
/// shards).
///
/// A stolen subtree's shard is detached unfinished and grafted into its
/// owner's open shard at the join ([`sl_check::DagBuilder::graft`]), so
/// a worker holds one open shard per subtree it is running plus the
/// stolen shards awaiting their owners' joins, and an exploration with
/// no failed attempt ends with the root's shard alone in the sink.
pub struct Sharded<'s, S: SeqSpec, C> {
    /// The wrapped per-worker replay state.
    pub inner: C,
    /// The shard stack fed by the subtree hooks.
    pub shards: DagShards<'s, S>,
}

impl<S: SeqSpec + 'static, C> ReplayCtx for Sharded<'_, S, C>
where
    DagBuilder<S>: Send,
{
    fn subtree_begin(&mut self) {
        self.shards.begin();
    }

    fn subtree_end(&mut self) {
        self.shards.end();
    }

    fn subtree_detach(&mut self) -> Option<DetachedShard> {
        Some(Box::new(self.shards.detach()))
    }

    fn subtree_graft(&mut self, shard: DetachedShard) {
        let shard = shard
            .downcast::<DagBuilder<S>>()
            .expect("a shard detached by a context of the same spec");
        self.shards.graft(*shard);
    }
}
