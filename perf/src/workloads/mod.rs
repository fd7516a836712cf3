//! The six workloads, by name.

use crate::adapter::{self, Res};
use crate::harness::{Options, Outcome};

mod boot;
mod prog;
mod served;

/// Runs the workload `opts` names.
///
/// # Errors
///
/// An unknown name, or whatever stopped the workload before it could be
/// measured (a failed operation is counted, not returned).
pub fn run(opts: &Options) -> Res<Outcome> {
    match opts.workload.as_str() {
        "boot_inproc" => boot::run(opts),
        "prog_rot" => prog::run(opts, adapter::KEYSWITCH_MICRO_POS),
        "prog_mul" => prog::run(opts, adapter::DEEP_MUL_CHAIN_POS),
        "serve_program" => served::run(opts, served::Kind::Program),
        "serve_mix_pipelined" => served::run(opts, served::Kind::MixPipelined),
        "serve_light_open" => served::run(opts, served::Kind::LightOpen),
        other => Err(format!("unknown workload {other:?}")),
    }
}
