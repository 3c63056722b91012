//! The process abstraction: resumable state machines that issue one
//! shared-memory operation per scheduled step.
//!
//! Protocols are written once as [`Process`] implementations and can then
//! be driven by any runtime: the deterministic simulator
//! ([`Engine`](crate::engine::Engine)) or a threaded runtime over real
//! atomics (`sift-shmem`). [`drive`] is the one sequential driver every
//! runtime outside the engine and the model checker shares.

use crate::ids::ProcessId;
use crate::op::{Op, OpResult};
use crate::value::Value;

/// What a process does next.
#[derive(Debug)]
pub enum Step<V, O> {
    /// Issue one shared-memory operation; the process will be resumed
    /// with its result.
    Issue(Op<V>),
    /// The protocol has finished with `output`. Any further scheduled
    /// slots become free no-ops (§1.1 of the paper).
    Done(O),
}

/// A resumable protocol state machine.
///
/// The driver calls [`step`](Process::step) with `None` once before the
/// process's first scheduled step, and thereafter with `Some(result)` of
/// the previously issued operation. Local computation inside `step` is
/// free; only issued operations cost steps, which matches the model's
/// step accounting.
///
/// # Examples
///
/// A process that writes its input to a register and then reads the
/// register back as its output:
///
/// ```
/// use sift_sim::{Op, OpResult, Process, RegisterId, Step};
///
/// struct WriteThenRead {
///     reg: RegisterId,
///     input: u32,
///     wrote: bool,
/// }
///
/// impl Process for WriteThenRead {
///     type Value = u32;
///     type Output = Option<u32>;
///
///     fn step(&mut self, prev: Option<OpResult<u32>>) -> Step<u32, Option<u32>> {
///         match prev {
///             None => Step::Issue(Op::RegisterWrite(self.reg, self.input)),
///             Some(OpResult::Ack) if !self.wrote => {
///                 self.wrote = true;
///                 Step::Issue(Op::RegisterRead(self.reg))
///             }
///             Some(result) => Step::Done(result.expect_register()),
///             _ => unreachable!(),
///         }
///     }
/// }
/// ```
pub trait Process {
    /// The value type stored in shared memory.
    type Value: Value;
    /// The protocol's return value.
    type Output;

    /// Advances the state machine.
    ///
    /// `prev` is `None` exactly once, before the first operation; after
    /// that it carries the result of the operation issued by the previous
    /// call. Implementations must not be called again after returning
    /// [`Step::Done`].
    fn step(&mut self, prev: Option<OpResult<Self::Value>>) -> Step<Self::Value, Self::Output>;
}

impl<P: Process + ?Sized> Process for Box<P> {
    type Value = P::Value;
    type Output = P::Output;

    fn step(&mut self, prev: Option<OpResult<Self::Value>>) -> Step<Self::Value, Self::Output> {
        (**self).step(prev)
    }
}

/// Drives `processes` sequentially against `execute`, one slot per
/// index of `order`, with the engine's slot semantics: a slot executes
/// the named process's pending operation and immediately resumes the
/// process with the result. Slots naming finished processes are free
/// no-ops, and the drive stops as soon as every process is done, so
/// `order` may be infinite (`(0..n).cycle()` is round robin).
///
/// Returns each process's output in process order; a process that
/// `order` starves ends with `None`.
///
/// # Examples
///
/// ```
/// use sift_sim::{drive, LayoutBuilder, Memory, Op, OpResult, Process, RegisterId, Step};
///
/// /// Reads the register once and returns the value seen.
/// struct ReadOnce(RegisterId);
///
/// impl Process for ReadOnce {
///     type Value = u32;
///     type Output = Option<u32>;
///     fn step(&mut self, prev: Option<OpResult<u32>>) -> Step<u32, Option<u32>> {
///         match prev {
///             None => Step::Issue(Op::RegisterRead(self.0)),
///             Some(result) => Step::Done(result.expect_register()),
///         }
///     }
/// }
///
/// let mut b = LayoutBuilder::new();
/// let r = b.register();
/// let mut memory = Memory::new(&b.build());
/// memory.execute(Op::RegisterWrite(r, 7));
/// // Process 0 finishes after one slot; the order never schedules 1.
/// let outputs = drive([ReadOnce(r), ReadOnce(r)], [0, 0, 0], |_, op| memory.execute(op));
/// assert_eq!(outputs, vec![Some(Some(7)), None]);
/// ```
///
/// # Panics
///
/// Panics if `order` names a process index out of range before every
/// process is done.
pub fn drive<P: Process>(
    processes: impl IntoIterator<Item = P>,
    order: impl IntoIterator<Item = usize>,
    mut execute: impl FnMut(ProcessId, Op<P::Value>) -> OpResult<P::Value>,
) -> Vec<Option<P::Output>> {
    let processes = processes.into_iter();
    let n = processes.size_hint().0;
    let mut procs = Vec::with_capacity(n);
    let mut pending = Vec::with_capacity(n);
    let mut outputs = Vec::with_capacity(n);
    for mut proc in processes {
        match proc.step(None) {
            Step::Issue(op) => {
                pending.push(Some(op));
                outputs.push(None);
            }
            Step::Done(output) => {
                pending.push(None);
                outputs.push(Some(output));
            }
        }
        procs.push(proc);
    }
    let mut running = pending.iter().filter(|op| op.is_some()).count();
    let mut order = order.into_iter();
    while running > 0 {
        let Some(i) = order.next() else { break };
        assert!(i < procs.len(), "order names out-of-range process {i}");
        if let Some(op) = pending[i].take() {
            match procs[i].step(Some(execute(ProcessId(i), op))) {
                Step::Issue(next) => pending[i] = Some(next),
                Step::Done(output) => {
                    outputs[i] = Some(output);
                    running -= 1;
                }
            }
        }
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RegisterId;

    struct Immediate;

    impl Process for Immediate {
        type Value = u32;
        type Output = &'static str;

        fn step(&mut self, _prev: Option<OpResult<u32>>) -> Step<u32, &'static str> {
            Step::Done("done")
        }
    }

    #[test]
    fn boxed_process_delegates() {
        let mut p: Box<dyn Process<Value = u32, Output = &'static str>> = Box::new(Immediate);
        match p.step(None) {
            Step::Done(s) => assert_eq!(s, "done"),
            Step::Issue(_) => panic!("expected immediate completion"),
        }
    }

    struct OneOp {
        reg: RegisterId,
        fired: bool,
    }

    impl Process for OneOp {
        type Value = u32;
        type Output = Option<u32>;

        fn step(&mut self, prev: Option<OpResult<u32>>) -> Step<u32, Option<u32>> {
            if !self.fired {
                self.fired = true;
                Step::Issue(Op::RegisterRead(self.reg))
            } else {
                Step::Done(prev.expect("resumed with a result").expect_register())
            }
        }
    }

    #[test]
    fn issue_then_done() {
        let mut p = OneOp {
            reg: RegisterId(0),
            fired: false,
        };
        assert!(matches!(p.step(None), Step::Issue(Op::RegisterRead(_))));
        assert!(matches!(
            p.step(Some(OpResult::RegisterValue(Some(4)))),
            Step::Done(Some(4))
        ));
    }

    /// Issues `ops` register reads, then finishes with the number of
    /// results it saw.
    struct Reads(usize, usize);

    impl Process for Reads {
        type Value = u32;
        type Output = usize;

        fn step(&mut self, prev: Option<OpResult<u32>>) -> Step<u32, usize> {
            self.1 += usize::from(prev.is_some());
            if self.1 < self.0 {
                Step::Issue(Op::RegisterRead(RegisterId(0)))
            } else {
                Step::Done(self.1)
            }
        }
    }

    fn bottom(_: ProcessId, _: Op<u32>) -> OpResult<u32> {
        OpResult::RegisterValue(None)
    }

    #[test]
    #[should_panic(expected = "out-of-range process 2")]
    fn drive_panics_on_an_out_of_range_index() {
        drive(vec![Reads(1, 0), Reads(1, 0)], [0, 2], bottom);
    }

    #[test]
    fn drive_stops_once_every_process_is_done_under_an_infinite_order() {
        let mut executed = Vec::new();
        let outputs = drive(vec![Reads(1, 0), Reads(3, 0)], (0..2).cycle(), |pid, op| {
            executed.push(pid.index());
            bottom(pid, op)
        });
        assert_eq!(outputs, vec![Some(1), Some(3)]);
        assert_eq!(executed, vec![0, 1, 1, 1]);
    }

    #[test]
    fn drive_finishes_a_process_done_on_its_first_step_without_a_slot() {
        let outputs = drive(vec![Reads(0, 0), Reads(1, 0)], std::iter::repeat(1), bottom);
        assert_eq!(outputs, vec![Some(0), Some(1)]);
        let outputs = drive(vec![Immediate], std::iter::empty(), |_, _| unreachable!());
        assert_eq!(outputs, vec![Some("done")]);
    }

    #[test]
    fn drive_with_zero_processes_returns_at_once() {
        let outputs = drive(Vec::<Reads>::new(), std::iter::repeat(0), bottom);
        assert!(outputs.is_empty());
    }
}
