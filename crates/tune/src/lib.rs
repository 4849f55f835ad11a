//! Retired. The kernel autotuner that lived here (shape keys, a cost model,
//! a committed table of schedule parameters) is gone: a fan-out's schedule
//! is one task per worker, computed by `scpar::ScparConfig::task_size`.
//!
//! The empty package remains only because `benchmark/Cargo.lock` names it
//! and its edges from scneural and scserve, CI fails when that lockfile
//! moves, and ISSUE 18 could not touch `benchmark/`. ROADMAP item 2's
//! benchmark-only digest-fold PR deletes this directory and the two manifest
//! lines that point at it, and refreshes the lockfile.
