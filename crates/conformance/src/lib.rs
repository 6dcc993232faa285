//! # mda-conformance
//!
//! Cross-layer differential conformance harness for the memristor distance
//! accelerator, with seeded fault injection.
//!
//! The repository computes the same six distance functions along several
//! paths: a digital DP reference (`mda-distance`), the answer paths
//! `mda-routing` serves (the behavioural analog model, device-level SPICE
//! netlists and the one-shot aCAM match plane), a TCP service
//! (`mda-server`) and a push-mode streaming tier (`mda-streaming`). This
//! crate is the subsystem that keeps them honest against each other:
//!
//! * [`case`] turns `(seed, id)` into a fully-specified query via a
//!   splittable PRNG ([`rng`]) — any case regenerates in isolation;
//! * [`layers`] runs one case through each implementation, the in-process
//!   analog layers through the served backends themselves, each judged
//!   under the calibrated bound its backend reports
//!   ([`mda_core::bounds`]);
//! * [`shrink`](mod@shrink) minimizes a disagreeing case to a small
//!   reproducer;
//! * [`report`] serializes reproducers (and parses them back for replay);
//! * [`faults`] injects seeded memristor faults under the tuning loop and
//!   checks graceful degradation: recovery within bounds for in-range
//!   variation, typed errors — never silent wrong answers — for stuck
//!   cells;
//! * [`harness`] orchestrates a whole run and emits one deterministic JSON
//!   report.
//!
//! The `conformance` binary fronts all of it for CI (`--quick`) and for
//! replaying a reproducer artifact (`--replay FILE`).

pub mod case;
pub mod faults;
pub mod harness;
pub mod layers;
pub mod report;
pub mod rng;
pub mod shrink;

pub use case::{generate, CaseSpec, Family, LengthClass};
pub use faults::{run_fault_suite, FaultSuiteOutcome};
pub use harness::{replay, run, HarnessConfig, RunOutcome};
pub use report::{load_case, write_reproducer, Failure};
pub use rng::SplitRng;
pub use shrink::shrink;
