//! Every call the benchmark makes into the program, in one file.
//!
//! One function per probe or span site. The rest of `perf/` names no item
//! of the `poseidon` crates, so when the program's API is collapsed (one
//! fallible evaluator, one NTT kernel, a pool instead of shards) the
//! benchmark follows with an edit to this file, not a rewrite. Wherever
//! the program offers both a panicking function and a `Result`-returning
//! twin, the `Result` form is the one called.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

use poseidon::ckks::encoding::Complex;
use poseidon::ckks::error::EvalError;
use poseidon::ckks::integrity::CheckedEvaluator;
use poseidon::core::plan::{self, CompileOptions, PlanOptions};
use poseidon::core::{HfAuto, HomomorphicOps};
use poseidon::math::{BarrettReducer, ShoupMul};
use poseidon::ntt::NttTable;
use poseidon::serve::{tcp, ServiceConfig};
use poseidon::sim::{AcceleratorConfig, Simulator};
use poseidon::wire;

use crate::trace;

pub use poseidon::ckks::bootstrap::Bootstrapper;
pub use poseidon::ckks::cipher::{Ciphertext, Plaintext};
pub use poseidon::ckks::context::CkksContext;
pub use poseidon::ckks::eval::{Evaluator, HoistedDecomposition};
pub use poseidon::ckks::keys::{KeySet, KeySwitchKey};
pub use poseidon::ckks::params::CkksParams;
pub use poseidon::core::plan::Plan;
pub use poseidon::rns::RnsPoly;
pub use poseidon::serve::tcp::{Client, Op, PendingReply};
pub use poseidon::serve::{EvalService, Request};
pub use poseidon::wire::BufferPool;

/// The seeded generator every workload input is drawn from.
pub type Rng = rand::rngs::StdRng;

pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Whether this build carries the program's own counters (the `telemetry`
/// feature); without it the registry reads empty.
pub fn registry_compiled_in() -> bool {
    cfg!(feature = "telemetry")
}

pub fn rng(seed: u64) -> Rng {
    rand::SeedableRng::seed_from_u64(seed)
}

/// A uniform value in `[0, 1)`.
pub fn uniform(rng: &mut Rng) -> f64 {
    rand::Rng::gen::<f64>(rng)
}

/// A uniform index below `n`.
pub fn below(rng: &mut Rng, n: usize) -> usize {
    rand::Rng::gen_range(rng, 0..n)
}

// --------------------------------------------------------------------------
// The shipped programs the workloads run
// --------------------------------------------------------------------------

pub const KEYSWITCH_MICRO_POS: &str = include_str!("../../programs/keyswitch_micro.pos");
pub const DEEP_MUL_CHAIN_POS: &str = include_str!("../../programs/deep_mul_chain.pos");
pub const BSGS_MATVEC_POS: &str = include_str!("../../programs/bsgs_matvec.pos");

// --------------------------------------------------------------------------
// Parameters, context, keys
// --------------------------------------------------------------------------

pub fn params_bootstrap() -> CkksParams {
    CkksParams::bootstrap_demo()
}

/// `small()` widened to N = 2^13: about 1.3 MB per ciphertext.
pub fn params_program_n13() -> CkksParams {
    CkksParams {
        n: 1 << 13,
        ..CkksParams::small()
    }
}

pub fn params_small() -> CkksParams {
    CkksParams::small()
}

/// The paper's 32-bit datapath at N = 2^12 with four chain primes.
pub fn params_paper32() -> CkksParams {
    CkksParams::paper_32bit(1 << 12, 4)
}

pub fn context(params: CkksParams) -> Res<CkksContext> {
    CkksContext::try_new(params).map_err(text)
}

pub fn ring_degree(ctx: &CkksContext) -> usize {
    ctx.n()
}

/// Chain primes at the top level (the `limbs` of the workload's shape).
pub fn chain_limbs(ctx: &CkksContext) -> usize {
    ctx.max_level() + 1
}

pub fn keygen(ctx: &CkksContext, rng: &mut Rng) -> KeySet {
    KeySet::generate(ctx, rng)
}

/// Keys with a sparse ternary secret of Hamming weight `h` (bootstrapping).
pub fn keygen_sparse(ctx: &CkksContext, h: usize, rng: &mut Rng) -> KeySet {
    KeySet::generate_sparse(ctx, h, rng)
}

pub fn add_rotation_key(keys: &mut KeySet, steps: i64, rng: &mut Rng) {
    keys.add_rotation_key(steps, rng);
}

pub fn add_conjugation_key(keys: &mut KeySet, rng: &mut Rng) {
    keys.add_conjugation_key(rng);
}

pub fn galois_element(keys: &KeySet, steps: i64) -> u64 {
    keys.galois_element(steps)
}

pub fn rotation_key(keys: &KeySet, steps: i64) -> Res<&KeySwitchKey> {
    keys.galois_key_for_rotation(steps)
        .ok_or_else(|| format!("no rotation key for step {steps}"))
}

pub fn relin_key(keys: &KeySet) -> &KeySwitchKey {
    keys.relin()
}

// --------------------------------------------------------------------------
// Encode, encrypt, decrypt, decode
// --------------------------------------------------------------------------

fn complex(values: &[f64]) -> Vec<Complex> {
    values.iter().map(|&v| Complex::new(v, 0.0)).collect()
}

/// Encodes real slot values at the top level and the default scale.
pub fn encode(ctx: &CkksContext, values: &[f64]) -> Plaintext {
    Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &complex(values), ctx.default_scale()),
        ctx.default_scale(),
    )
}

/// The real parts of the first `slots` slots.
pub fn decode(ctx: &CkksContext, pt: &Plaintext, slots: usize) -> Vec<f64> {
    ctx.encoder()
        .decode_rns(pt.poly(), pt.scale(), slots)
        .iter()
        .map(|z| z.re)
        .collect()
}

pub fn encrypt(keys: &KeySet, pt: &Plaintext, rng: &mut Rng) -> Ciphertext {
    keys.public().encrypt(pt, rng)
}

pub fn decrypt(keys: &KeySet, ct: &Ciphertext) -> Plaintext {
    keys.secret().decrypt(ct)
}

pub fn decrypt_values(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext, slots: usize) -> Vec<f64> {
    decode(ctx, &decrypt(keys, ct), slots)
}

/// The program's own ciphertext digest (FNV over residues, level, scale).
pub fn digest(ct: &Ciphertext) -> u64 {
    poseidon::ckks::integrity::digest_ciphertext(ct)
}

pub fn level(ct: &Ciphertext) -> usize {
    ct.level()
}

// --------------------------------------------------------------------------
// ckks: the evaluator
// --------------------------------------------------------------------------

pub fn evaluator(ctx: &CkksContext) -> Evaluator {
    Evaluator::new(ctx)
}

pub fn eval_add(eval: &Evaluator, a: &Ciphertext, b: &Ciphertext) -> Res<Ciphertext> {
    eval.try_add(a, b).map_err(text)
}

pub fn eval_sub(eval: &Evaluator, a: &Ciphertext, b: &Ciphertext) -> Res<Ciphertext> {
    eval.try_sub(a, b).map_err(text)
}

pub fn eval_add_plain(eval: &Evaluator, a: &Ciphertext, pt: &Plaintext) -> Res<Ciphertext> {
    eval.try_add_plain(a, pt).map_err(text)
}

/// `mul_plain` has no fallible twin.
pub fn eval_mul_plain(eval: &Evaluator, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
    eval.mul_plain(a, pt)
}

pub fn eval_mul(
    eval: &Evaluator,
    a: &Ciphertext,
    b: &Ciphertext,
    keys: &KeySet,
) -> Res<Ciphertext> {
    eval.try_mul(a, b, keys).map_err(text)
}

pub fn eval_rotate(eval: &Evaluator, a: &Ciphertext, steps: i64, keys: &KeySet) -> Res<Ciphertext> {
    eval.try_rotate(a, steps, keys).map_err(text)
}

/// The raw key-switch of one polynomial (no fallible twin).
pub fn eval_keyswitch(eval: &Evaluator, d: &RnsPoly, key: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
    eval.keyswitch(d, key)
}

/// The rotation-independent half of a rotation (no fallible twin).
pub fn eval_hoist(eval: &Evaluator, a: &Ciphertext) -> HoistedDecomposition {
    eval.hoist(a)
}

/// The per-rotation half, on hoisted digits (no fallible twin).
pub fn eval_apply_galois_hoisted(
    eval: &Evaluator,
    a: &Ciphertext,
    hoisted: &HoistedDecomposition,
    g: u64,
    key: &KeySwitchKey,
) -> Ciphertext {
    eval.apply_galois_hoisted(a, hoisted, g, key)
}

/// The multiplication as the service runs it: twice, digests compared.
pub struct Checked(CheckedEvaluator);

pub fn checked_evaluator(ctx: &CkksContext) -> Checked {
    Checked(CheckedEvaluator::new(ctx))
}

pub fn checked_mul(
    checked: &Checked,
    a: &Ciphertext,
    b: &Ciphertext,
    keys: &KeySet,
) -> Res<Ciphertext> {
    checked.0.mul(a, b, keys).map_err(text)
}

/// A `HomomorphicOps` backend that delegates to [`Evaluator`] and records
/// one span per operation, so the planner's executor can be split into the
/// evaluator's share and its own. Operations of one cost class share a
/// span name; `drop_to_level` (a truncating clone) is left to the
/// executor's self time.
pub struct SpanningOps {
    eval: Evaluator,
}

pub fn spanning_ops(ctx: &CkksContext) -> SpanningOps {
    SpanningOps {
        eval: Evaluator::new(ctx),
    }
}

impl HomomorphicOps for SpanningOps {
    fn try_add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let _span = trace::span("ckks.add");
        self.eval.try_add(a, b)
    }

    fn try_sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let _span = trace::span("ckks.add");
        self.eval.try_sub(a, b)
    }

    fn try_add_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        let _span = trace::span("ckks.add");
        self.eval.try_add_plain(a, pt)
    }

    fn try_mul_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        let _span = trace::span("ckks.mul_plain");
        Ok(self.eval.mul_plain(a, pt))
    }

    fn try_mul(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        let _span = trace::span("ckks.mul");
        self.eval.try_mul(a, b, keys)
    }

    fn try_square(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        let _span = trace::span("ckks.mul");
        self.eval.try_square(a, keys)
    }

    fn try_rescale(&mut self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let _span = trace::span("ckks.rescale");
        self.eval.try_rescale(a)
    }

    fn try_drop_to_level(&mut self, a: &Ciphertext, level: usize) -> Result<Ciphertext, EvalError> {
        self.eval.try_drop_to_level(a, level)
    }

    fn try_rotate(
        &mut self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        let _span = trace::span("ckks.rotate");
        self.eval.try_rotate(a, steps, keys)
    }

    fn try_conjugate(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        let _span = trace::span("ckks.rotate");
        self.eval.try_conjugate(a, keys)
    }

    fn try_rotate_many(
        &mut self,
        a: &Ciphertext,
        steps: &[i64],
        keys: &KeySet,
    ) -> Result<Vec<Ciphertext>, EvalError> {
        let _span = trace::span("ckks.rotate_many");
        self.eval.try_rotate_many(a, steps, keys)
    }
}

// --------------------------------------------------------------------------
// ckks: bootstrapping
// --------------------------------------------------------------------------

pub fn bootstrapper(ctx: &CkksContext, slots: usize, doublings: u32) -> Bootstrapper {
    Bootstrapper::new(ctx, slots, doublings)
}

pub fn bootstrap_rotations(bs: &Bootstrapper) -> Vec<i64> {
    bs.required_rotations()
}

/// Truncates to level 0: the exhausted input bootstrapping refreshes.
pub fn exhaust(eval: &Evaluator, ct: &Ciphertext) -> Res<Ciphertext> {
    eval.try_drop_to_level(ct, 0).map_err(text)
}

pub fn bootstrap(
    bs: &Bootstrapper,
    eval: &Evaluator,
    keys: &KeySet,
    ct: &Ciphertext,
) -> Res<Ciphertext> {
    bs.try_bootstrap(eval, keys, ct).map_err(text)
}

/// The same pipeline as [`bootstrap`], called stage by stage through the
/// public stage functions with one span around each.
pub fn bootstrap_staged(
    bs: &Bootstrapper,
    eval: &Evaluator,
    keys: &KeySet,
    ct: &Ciphertext,
) -> Res<Ciphertext> {
    let raised = {
        let _span = trace::span("ckks.boot.mod_raise");
        bs.try_mod_raise(ct).map_err(text)?
    };
    let traced = {
        let _span = trace::span("ckks.boot.subsum");
        bs.try_subsum(eval, keys, &raised).map_err(text)?
    };
    let (low, high) = {
        let _span = trace::span("ckks.boot.coeff_to_slot");
        bs.try_coeff_to_slot(eval, keys, &traced).map_err(text)?
    };
    let (low, high) = {
        let _span = trace::span("ckks.boot.eval_mod");
        (
            bs.try_eval_mod(eval, keys, &low).map_err(text)?,
            bs.try_eval_mod(eval, keys, &high).map_err(text)?,
        )
    };
    let _span = trace::span("ckks.boot.slot_to_coeff");
    bs.try_slot_to_coeff(eval, keys, &low, &high).map_err(text)
}

// --------------------------------------------------------------------------
// core: the planner
// --------------------------------------------------------------------------

/// `sim::program::parse` then `plan_trace` with the shipping options: what
/// the service does with a submitted program.
pub fn parse_and_plan(program: &str, ctx: &CkksContext) -> Res<Plan> {
    let trace = poseidon::sim::program::parse(program).map_err(text)?;
    plan::plan_trace(&trace, ctx, &PlanOptions::default()).map_err(text)
}

/// The same program lowered to the same graph but left unplanned
/// (`Plan::passthrough`): the reference a planned run is checked against.
/// Also returns the rotation steps the graph uses.
pub fn reference_plan(program: &str, ctx: &CkksContext) -> Res<(Plan, Vec<i64>)> {
    let trace = poseidon::sim::program::parse(program).map_err(text)?;
    let options = CompileOptions {
        count_cap: PlanOptions::default().count_cap,
        ..CompileOptions::default()
    };
    let compiled = plan::compile_trace(&trace, ctx, &options).map_err(text)?;
    Ok((Plan::passthrough(compiled.graph), compiled.rotation_steps))
}

pub fn plan_input_count(plan: &Plan) -> usize {
    plan.graph.inputs().len()
}

/// Whether the plan only hoists, drops dead values and reorders, so that
/// its outputs must be digest-identical to the reference's.
pub fn plan_is_bit_preserving(plan: &Plan) -> bool {
    plan.value_preserving
}

pub fn plan_nodes_after(plan: &Plan) -> usize {
    plan.stats.nodes_after
}

pub fn plan_hoist_batches(plan: &Plan) -> usize {
    plan.stats.hoist_batches.len()
}

/// Outputs and peak live ciphertexts of one execution.
pub struct Executed {
    pub outputs: Vec<Ciphertext>,
    pub max_live: usize,
}

pub fn plan_execute(
    plan: &Plan,
    eval: &mut Evaluator,
    inputs: &[Ciphertext],
    keys: &KeySet,
) -> Res<Executed> {
    let outcome = plan::execute(plan, eval, inputs, keys).map_err(text)?;
    Ok(Executed {
        outputs: outcome.outputs,
        max_live: outcome.max_live,
    })
}

/// [`plan_execute`] on the span-recording backend, inside one
/// `core.plan.execute` span.
pub fn plan_execute_spanned(
    plan: &Plan,
    ops: &mut SpanningOps,
    inputs: &[Ciphertext],
    keys: &KeySet,
) -> Res<Executed> {
    let _span = trace::span("core.plan.execute");
    let outcome = plan::execute(plan, ops, inputs, keys).map_err(text)?;
    Ok(Executed {
        outputs: outcome.outputs,
        max_live: outcome.max_live,
    })
}

/// The hardware-friendly automorphism engine at vector length `n`, with
/// the paper's 512 lanes (fewer when the vector is shorter).
pub fn hfauto(n: usize) -> HfAuto {
    HfAuto::new(n, n.min(512))
}

pub fn hfauto_apply(engine: &HfAuto, data: &[u64], g: u64, q: u64) -> Vec<u64> {
    engine.apply(data, g, q)
}

// --------------------------------------------------------------------------
// math, ntt, rns: kernels
// --------------------------------------------------------------------------

pub fn first_prime(ctx: &CkksContext) -> u64 {
    ctx.chain_basis().primes()[0]
}

pub fn barrett(q: u64) -> BarrettReducer {
    BarrettReducer::new(q)
}

/// `n` dependent Barrett multiplications.
pub fn barrett_mul_chain(reducer: &BarrettReducer, mut x: u64, y: u64, n: usize) -> u64 {
    for _ in 0..n {
        x = reducer.mul(x, y);
    }
    x
}

pub fn shoup(w: u64, q: u64) -> ShoupMul {
    ShoupMul::new(w, q)
}

/// `n` dependent Shoup multiplications by one fixed operand.
pub fn shoup_mul_chain(operand: &ShoupMul, mut x: u64, n: usize) -> u64 {
    for _ in 0..n {
        x = operand.mul(x);
    }
    x
}

/// The first chain prime's table at the default kernel dispatch.
pub fn ntt_table(ctx: &CkksContext) -> Arc<NttTable> {
    Arc::clone(&ctx.chain_basis().tables()[0])
}

pub fn ntt_forward(table: &NttTable, a: &mut [u64]) {
    table.forward(a);
}

pub fn ntt_inverse(table: &NttTable, a: &mut [u64]) {
    table.inverse(a);
}

/// A coefficient-form polynomial over the whole chain, to run kernels on.
pub fn chain_poly(ct: &Ciphertext) -> RnsPoly {
    ct.c0().clone()
}

pub fn rns_modup(a: &RnsPoly, ctx: &CkksContext) -> RnsPoly {
    poseidon::rns::conv::modup(a, ctx.special_basis())
}

pub fn rns_moddown(extended: &RnsPoly, q_len: usize) -> RnsPoly {
    poseidon::rns::conv::moddown(extended, q_len)
}

pub fn rns_rescale(a: &RnsPoly) -> RnsPoly {
    poseidon::rns::conv::rescale(a)
}

pub fn rns_into_eval(a: RnsPoly) -> RnsPoly {
    a.into_eval()
}

pub fn rns_mul_assign(acc: &mut RnsPoly, other: &RnsPoly) {
    acc.mul_assign(other);
}

pub fn rns_automorphism_eval(a: &RnsPoly, g: u64) -> RnsPoly {
    a.automorphism_eval(g)
}

// --------------------------------------------------------------------------
// par
// --------------------------------------------------------------------------

/// The thread count the program's limb-parallel engine resolves to.
pub fn par_threads() -> usize {
    poseidon::par::threads()
}

/// An empty-body `par_map` heavy enough (by declared weight) to dispatch.
pub fn par_map_empty(items: usize) -> usize {
    poseidon::par::par_map(items, poseidon::par::PAR_THRESHOLD, |i| i).len()
}

/// [`par_map_empty`] with the engine pinned to one thread.
pub fn par_map_empty_serial(items: usize) -> usize {
    poseidon::par::with_threads(1, || par_map_empty(items))
}

// --------------------------------------------------------------------------
// sim
// --------------------------------------------------------------------------

/// Simulated microseconds of a `.pos` program on the modelled U280.
pub fn simulate_program_us(program: &str) -> Res<f64> {
    let trace = poseidon::sim::program::parse(program).map_err(text)?;
    Ok(Simulator::new(AcceleratorConfig::poseidon_u280())
        .run(&trace)
        .seconds
        * 1e6)
}

/// Simulated microseconds of the paper's packed-bootstrapping trace.
pub fn simulate_bootstrap_us() -> f64 {
    Simulator::new(AcceleratorConfig::poseidon_u280())
        .run(&poseidon::sim::workloads::packed_bootstrap_trace())
        .seconds
        * 1e6
}

// --------------------------------------------------------------------------
// wire
// --------------------------------------------------------------------------

pub fn encode_ciphertext(ctx: &CkksContext, ct: &Ciphertext) -> Vec<u8> {
    wire::encode_ciphertext(ctx, ct)
}

pub fn decode_ciphertext(ctx: &CkksContext, frame: &[u8]) -> Res<Ciphertext> {
    wire::decode_ciphertext(ctx, frame).map_err(text)
}

/// The server's decode: residue rows come from (and go back to) a pool.
pub fn buffer_pool(rows: usize) -> BufferPool {
    BufferPool::new(rows)
}

pub fn decode_ciphertext_pooled(
    ctx: &CkksContext,
    frame: &[u8],
    pool: &BufferPool,
) -> Res<Ciphertext> {
    wire::decode_ciphertext_pooled(ctx, frame, pool).map_err(text)
}

pub fn recycle_ciphertext(pool: &BufferPool, ct: Ciphertext) {
    pool.recycle_ciphertext(ct);
}

pub fn encode_plaintext(ctx: &CkksContext, pt: &Plaintext) -> Vec<u8> {
    wire::encode_plaintext(ctx, pt)
}

pub fn decode_plaintext(ctx: &CkksContext, frame: &[u8]) -> Res<Plaintext> {
    wire::decode_plaintext(ctx, frame).map_err(text)
}

pub fn wire_checksum(bytes: &[u8]) -> u64 {
    wire::checksum(bytes)
}

/// The public half of a key set, as a tenant registers it.
pub fn encode_keyset(ctx: &CkksContext, keys: &KeySet) -> Vec<u8> {
    wire::encode_keyset_public(ctx, keys)
}

/// Decodes a key-set frame; the count of Galois keys proves it was read.
pub fn decode_keyset(frame: &[u8]) -> Res<usize> {
    let (_ctx, keys) = wire::decode_keyset(frame).map_err(text)?;
    Ok(keys.galois_entries().len())
}

// --------------------------------------------------------------------------
// serve
// --------------------------------------------------------------------------

/// Starts a service at its shipping configuration with `shards` workers.
pub fn service_start(shards: usize) -> Arc<EvalService> {
    EvalService::start(ServiceConfig {
        shards,
        ..ServiceConfig::default()
    })
}

/// Serves `service` on an ephemeral loopback port. The acceptor thread
/// lives until the process exits.
pub fn listen(service: &Arc<EvalService>) -> Res<SocketAddr> {
    tcp::listen(Arc::clone(service), "127.0.0.1:0")
        .map(|(addr, _acceptor)| addr)
        .map_err(text)
}

pub fn connect(addr: SocketAddr) -> Res<Client> {
    Client::connect(addr).map_err(text)
}

pub fn register_chunked(client: &Client, tenant: &str, keyset_frame: &[u8]) -> Res<()> {
    client
        .register_tenant_chunked(tenant, keyset_frame)
        .map_err(text)
}

/// Sends one request without waiting for its reply.
pub fn submit(client: &Client, tenant: &str, op: Op<'_>) -> Res<PendingReply> {
    client.submit(tenant, op).map_err(text)
}

/// Blocks for a reply frame.
pub fn wait(reply: PendingReply) -> Res<Vec<u8>> {
    reply
        .wait()
        .map_err(text)?
        .ok_or_else(|| "reply carried no ciphertext".to_string())
}

/// Waits for a reply for at most `timeout`; `None` while it is in flight.
pub fn wait_timeout(reply: &PendingReply, timeout: std::time::Duration) -> Option<Res<Vec<u8>>> {
    reply.wait_timeout(timeout).map(|r| {
        r.map_err(text)?
            .ok_or_else(|| "reply carried no ciphertext".to_string())
    })
}

/// Submit and wait: one blocking request.
pub fn request(client: &Client, tenant: &str, op: Op<'_>) -> Res<Vec<u8>> {
    wait(submit(client, tenant, op)?)
}

/// One blocking request to the service in process, no codec, no socket.
pub fn service_call(service: &EvalService, tenant: &str, request: Request) -> Res<Ciphertext> {
    service.call(tenant, request).map_err(text)
}

/// The dispatcher shard a tenant's requests land on.
pub fn shard_of(service: &EvalService, tenant: &str) -> usize {
    service.shard_of(tenant)
}

pub fn queue_depth(service: &EvalService) -> usize {
    service.queue_depth()
}

pub fn replay_bytes(service: &EvalService) -> usize {
    service.replay_bytes()
}

pub fn service_shutdown(service: &EvalService) {
    service.shutdown();
}

// --------------------------------------------------------------------------
// telemetry: the program's own registry, read only
// --------------------------------------------------------------------------

/// Totals of one registry scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    pub count: u64,
    pub items: u64,
    pub nanos: u64,
}

/// Every scope of the global registry as it stands. Empty in a build
/// without the `telemetry` feature.
pub fn registry_snapshot() -> BTreeMap<String, Scope> {
    poseidon_telemetry::Registry::global()
        .snapshot()
        .scopes
        .into_iter()
        .map(|s| {
            (
                s.name,
                Scope {
                    count: s.count,
                    items: s.items,
                    nanos: s.nanos,
                },
            )
        })
        .collect()
}
