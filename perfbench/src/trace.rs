//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span names the layer call it wraps, its start and end on a
//! monotonic clock, the span that caused it, and the identifier shared
//! by every span of one request (or decision, or trial). Spans stay in
//! memory while a pass runs and are written out once at the end; a
//! layer's self time is its span's duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layer calls the benchmark wraps in spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `Service::propose`.
    ServicePropose,
    /// Awaiting the `ProposeFuture` until it resolves.
    ServiceResolve,
    /// `DeterministicService::propose`.
    ShardSubmit,
    /// `DeterministicService::tick_all`.
    ShardTick,
    /// The replay of one shard decision (parent of the stages below).
    Decide,
    /// `LayoutBuilder::build`.
    LayoutBuild,
    /// `ConsensusProtocol::allocate`.
    ConsensusAllocate,
    /// Seed derivation plus `ConsensusProtocol::participant` for every
    /// process of the batch.
    ConsensusParticipants,
    /// `AtomicMemory::new`.
    ShmemMemoryNew,
    /// `run_lockstep_on`.
    ShmemLockstep,
    /// Dropping one attempt's memory, protocol and outcomes.
    DecideTeardown,
    /// `run_lockstep_on` over a lone `SnapshotConciliator`.
    CoreConciliator,
    /// `run_lockstep_on` over a lone `GafniSnapshotAc`.
    AdoptCommit,
    /// `Engine::new`.
    SimEngineNew,
    /// `Engine::run`.
    SimRun,
}

impl Layer {
    /// The span name written out.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ServicePropose => "service.propose",
            Layer::ServiceResolve => "service.resolve",
            Layer::ShardSubmit => "shard.submit",
            Layer::ShardTick => "shard.tick",
            Layer::Decide => "decide",
            Layer::LayoutBuild => "layout.build",
            Layer::ConsensusAllocate => "consensus.allocate",
            Layer::ConsensusParticipants => "consensus.participants",
            Layer::ShmemMemoryNew => "shmem.memory_new",
            Layer::ShmemLockstep => "shmem.lockstep",
            Layer::DecideTeardown => "decide.teardown",
            Layer::CoreConciliator => "core.conciliator",
            Layer::AdoptCommit => "adopt_commit.run",
            Layer::SimEngineNew => "sim.engine_new",
            Layer::SimRun => "sim.run",
        }
    }
}

/// One recorded span. `parent` is an index into the owning
/// [`Tracer`]'s span list, or `u32::MAX` for a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Shared by every span of one request, decision or trial.
    pub trace: u64,
    /// The causing span, or `u32::MAX`.
    pub parent: u32,
    /// The wrapped call.
    pub layer: Layer,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Marker for a root span.
pub const ROOT: u32 = u32::MAX;

/// An append-only span log with a shared clock epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty log with room for `capacity` spans, so recording does
    /// not reallocate inside a timed loop.
    pub fn with_capacity(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken elsewhere to this log's clock.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends a span and returns its index (for use as a parent).
    pub fn record(&mut self, trace: u64, parent: u32, layer: Layer, start: u64, end: u64) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            trace,
            parent,
            layer,
            start,
            end,
        });
        index
    }

    /// Sets the end of span `index` (for a parent recorded before its
    /// children).
    pub fn close(&mut self, index: u32, end: u64) {
        self.spans[index as usize].end = end;
    }

    /// Moves every span of `other` into this log, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != ROOT {
                span.parent += offset;
            }
            span
        }));
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span of `layer`, in recording order.
    pub fn durations(&self, layer: Layer) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::ns)
            .collect()
    }

    /// Total self time and span count per layer.
    pub fn self_times(&self) -> BTreeMap<Layer, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                covered[span.parent as usize] += span.ns();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = totals.entry(span.layer).or_insert((0, 0));
            entry.0 += span.ns().saturating_sub(covered);
            entry.1 += 1;
        }
        totals
    }

    /// Writes at most `limit` spans as tab-separated lines (index,
    /// trace, parent, name, start, end), after a header line that
    /// states how many were recorded.
    pub fn write_tsv(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {} spans recorded, {} written; times in ns",
            self.spans.len(),
            self.spans.len().min(limit)
        )?;
        writeln!(out, "index\ttrace\tparent\tname\tstart_ns\tend_ns")?;
        for (index, span) in self.spans.iter().take(limit).enumerate() {
            let parent = if span.parent == ROOT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{index}\t{}\t{parent}\t{}\t{}\t{}",
                span.trace,
                span.layer.name(),
                span.start,
                span.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.record(1, ROOT, Layer::Decide, 0, 100);
        tracer.record(1, root, Layer::LayoutBuild, 10, 30);
        tracer.record(1, root, Layer::ShmemLockstep, 30, 90);
        let totals = tracer.self_times();
        assert_eq!(totals[&Layer::Decide], (20, 1));
        assert_eq!(totals[&Layer::LayoutBuild], (20, 1));
        assert_eq!(totals[&Layer::ShmemLockstep], (60, 1));
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.record(0, ROOT, Layer::SimRun, 0, 5);
        let mut b = Tracer::new(epoch);
        let root = b.record(1, ROOT, Layer::Decide, 0, 10);
        b.record(1, root, Layer::LayoutBuild, 0, 4);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.self_times()[&Layer::Decide], (6, 1));
    }
}
