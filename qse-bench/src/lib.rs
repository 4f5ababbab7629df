//! `qse-bench`: the benchmark every performance claim about this
//! repository is measured with. See `README.md` beside this crate for
//! the workloads, the metrics and how they interact.

pub mod ledger;
