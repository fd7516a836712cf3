//! The three served workloads: a sharded `EvalService` behind its TCP
//! front end on loopback, two tenants with one connection each, and one
//! load-generator thread per connection.
//!
//! - `serve_program`: closed loop, one `bsgs_matvec.pos` submission in
//!   flight per tenant, at `small()`. One request crosses every layer and
//!   no batch can form.
//! - `serve_mix_pipelined`: closed loop, each tenant pipelines rounds of
//!   six rotations of one ciphertext, two adds and a mul (order shuffled by
//!   the seed), one round in flight, at `paper_32bit(2^12, 4)`.
//! - `serve_light_open`: open loop, Poisson arrivals at 100 requests a
//!   second of add, sub, add-plain and mul-plain (no NTT, no key-switch)
//!   at the same parameters, timed from each request's due time.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Ciphertext, CkksContext, Client, EvalService, KeySet, Op, PendingReply, Plaintext,
    Request, Res,
};
use crate::catalog::LIGHT_LATENCY_LIMIT_MS;
use crate::harness::{self, Options, Outcome, Timed};
use crate::loadgen::{self, InFlight};
use crate::probes;
use crate::procfs;
use crate::stats::{self, Onion};
use crate::trace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Program,
    MixPipelined,
    LightOpen,
}

impl Kind {
    /// Set-ups per untraced run; `setup_s` is their median. The cheaper the
    /// set-up, the more of them it takes to steady it.
    fn setups(self) -> usize {
        match self {
            Kind::Program => 3,
            Kind::MixPipelined => 5,
            Kind::LightOpen => 9,
        }
    }
}

const SLOTS: usize = 8;
const SHARDS: usize = 2;
const TENANTS: usize = 2;
/// Rotation steps of one mix round.
const MIX_STEPS: [i64; 6] = [1, 2, 3, 4, 5, 6];
/// Offered load of the open loop, over all tenants.
const LIGHT_RATE_PER_S: f64 = 100.0;
/// The open loop reads the resident set after every so many sends.
const RSS_EVERY: usize = 10;
/// Served replies decrypt this close to the plaintext computation (32-bit
/// primes, scale 2^28: errors measure around 1e-5); a planned program this
/// close, relative, to its unplanned run.
const TOLERANCE: f64 = 2e-3;

/// One request, by index into the fixture's pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Call {
    Program { a: usize },
    Rotate { a: usize, steps: i64 },
    Add { a: usize, b: usize },
    Sub { a: usize, b: usize },
    Mul { a: usize, b: usize },
    AddPlain { a: usize, pt: usize },
    MulPlain { a: usize, pt: usize },
}

struct Fixture {
    kind: Kind,
    ctx: CkksContext,
    keys: KeySet,
    service: Arc<EvalService>,
    tenants: Vec<String>,
    clients: Vec<Client>,
    messages: Vec<Vec<f64>>,
    cts: Vec<Ciphertext>,
    frames: Vec<Vec<u8>>,
    plain_values: Vec<Vec<f64>>,
    pts: Vec<Plaintext>,
    pt_frames: Vec<Vec<u8>>,
    keyset_frame: Vec<u8>,
    /// A step the key set can rotate by, for the rotation probes.
    probe_step: i64,
    keygen_ms: f64,
    rotation_keygen_ms_per_key: Option<f64>,
    encode_keyset_ms: f64,
    start_listen_ms: f64,
    register_chunked_ms: f64,
}

impl Fixture {
    fn op(&self, call: Call) -> Op<'_> {
        let ct = |i: usize| self.frames[i].as_slice();
        let pt = |i: usize| self.pt_frames[i].as_slice();
        match call {
            Call::Program { a } => Op::Program {
                program: adapter::BSGS_MATVEC_POS.as_bytes(),
                a: ct(a),
            },
            Call::Rotate { a, steps } => Op::Rotate { a: ct(a), steps },
            Call::Add { a, b } => Op::Add { a: ct(a), b: ct(b) },
            Call::Sub { a, b } => Op::Sub { a: ct(a), b: ct(b) },
            Call::Mul { a, b } => Op::Mul { a: ct(a), b: ct(b) },
            Call::AddPlain { a, pt: p } => Op::AddPlain {
                a: ct(a),
                pt: pt(p),
            },
            Call::MulPlain { a, pt: p } => Op::MulPlain {
                a: ct(a),
                pt: pt(p),
            },
        }
    }

    /// The same request for the service in process: operands decoded.
    fn request(&self, call: Call) -> Request {
        let ct = |i: usize| self.cts[i].clone();
        match call {
            Call::Program { a } => Request::Program {
                text: adapter::BSGS_MATVEC_POS.to_string(),
                a: ct(a),
            },
            Call::Rotate { a, steps } => Request::Rotate { a: ct(a), steps },
            Call::Add { a, b } => Request::Add { a: ct(a), b: ct(b) },
            Call::Sub { a, b } => Request::Sub { a: ct(a), b: ct(b) },
            Call::Mul { a, b } => Request::Mul { a: ct(a), b: ct(b) },
            Call::AddPlain { a, pt } => Request::AddPlain {
                a: ct(a),
                pt: self.pts[pt].clone(),
            },
            Call::MulPlain { a, pt } => Request::MulPlain {
                a: ct(a),
                pt: self.pts[pt].clone(),
            },
        }
    }

    /// Bytes of the operand frames a request carries.
    fn request_bytes(&self, call: Call) -> u64 {
        let ct = |i: usize| self.frames[i].len();
        let bytes = match call {
            Call::Program { a } => adapter::BSGS_MATVEC_POS.len() + ct(a),
            Call::Rotate { a, .. } => ct(a),
            Call::Add { a, b } | Call::Sub { a, b } | Call::Mul { a, b } => ct(a) + ct(b),
            Call::AddPlain { a, pt } | Call::MulPlain { a, pt } => ct(a) + self.pt_frames[pt].len(),
        };
        bytes as u64
    }

    /// What the reply must decrypt to, slot by slot. A program has no
    /// closed form here; it is checked against its unplanned execution.
    fn expected(&self, call: Call) -> Option<Vec<f64>> {
        let m = |i: usize| &self.messages[i];
        let zip = |x: &[f64], y: &[f64], f: fn(f64, f64) -> f64| -> Vec<f64> {
            x.iter().zip(y).map(|(a, b)| f(*a, *b)).collect()
        };
        Some(match call {
            Call::Program { .. } => return None,
            Call::Rotate { a, steps } => (0..SLOTS)
                .map(|i| m(a)[(i + steps as usize) % SLOTS])
                .collect(),
            Call::Add { a, b } => zip(m(a), m(b), |x, y| x + y),
            Call::Sub { a, b } => zip(m(a), m(b), |x, y| x - y),
            Call::Mul { a, b } => zip(m(a), m(b), |x, y| x * y),
            Call::AddPlain { a, pt } => zip(m(a), &self.plain_values[pt], |x, y| x + y),
            Call::MulPlain { a, pt } => zip(m(a), &self.plain_values[pt], |x, y| x * y),
        })
    }

    /// The bare evaluator's share of a request, on decoded operands.
    fn evaluate(&self, call: Call) -> Res<Ciphertext> {
        let eval = adapter::evaluator(&self.ctx);
        let ct = |i: usize| &self.cts[i];
        match call {
            Call::Program { a } => {
                let plan = adapter::parse_and_plan(adapter::BSGS_MATVEC_POS, &self.ctx)?;
                let inputs = vec![ct(a).clone(); adapter::plan_input_count(&plan)];
                let mut eval = eval;
                adapter::plan_execute(&plan, &mut eval, &inputs, &self.keys)?
                    .outputs
                    .pop()
                    .ok_or_else(|| "program produced no output".to_string())
            }
            Call::Rotate { a, steps } => adapter::eval_rotate(&eval, ct(a), steps, &self.keys),
            Call::Add { a, b } => adapter::eval_add(&eval, ct(a), ct(b)),
            Call::Sub { a, b } => adapter::eval_sub(&eval, ct(a), ct(b)),
            Call::Mul { a, b } => adapter::eval_mul(&eval, ct(a), ct(b), &self.keys),
            Call::AddPlain { a, pt } => adapter::eval_add_plain(&eval, ct(a), &self.pts[pt]),
            Call::MulPlain { a, pt } => Ok(adapter::eval_mul_plain(&eval, ct(a), &self.pts[pt])),
        }
    }

    /// The codec's share of a request: operands decoded the way the server
    /// decodes them, the reply encoded.
    fn codec(&self, call: Call, reply: &Ciphertext, pool: &adapter::BufferPool) -> Res<usize> {
        let ct = |i: usize| -> Res<()> {
            let decoded = adapter::decode_ciphertext_pooled(&self.ctx, &self.frames[i], pool)?;
            adapter::recycle_ciphertext(pool, decoded);
            Ok(())
        };
        match call {
            Call::Program { a } | Call::Rotate { a, .. } => ct(a)?,
            Call::Add { a, b } | Call::Sub { a, b } | Call::Mul { a, b } => {
                ct(a)?;
                ct(b)?;
            }
            Call::AddPlain { a, pt } | Call::MulPlain { a, pt } => {
                ct(a)?;
                adapter::decode_plaintext(&self.ctx, &self.pt_frames[pt])?;
            }
        }
        Ok(adapter::encode_ciphertext(&self.ctx, reply).len())
    }

    /// The calls of one warm-up pass, and of the onion.
    fn representative_calls(&self) -> Vec<Call> {
        match self.kind {
            Kind::Program => vec![Call::Program { a: 0 }],
            Kind::MixPipelined => {
                let mut calls: Vec<Call> = MIX_STEPS
                    .iter()
                    .map(|&steps| Call::Rotate { a: 0, steps })
                    .collect();
                calls.extend([
                    Call::Add { a: 0, b: 1 },
                    Call::Add { a: 1, b: 2 },
                    Call::Mul { a: 0, b: 1 },
                ]);
                calls
            }
            Kind::LightOpen => vec![
                Call::Add { a: 0, b: 1 },
                Call::Sub { a: 0, b: 1 },
                Call::AddPlain { a: 0, pt: 0 },
                Call::MulPlain { a: 0, pt: 0 },
            ],
        }
    }
}

fn random_message(rng: &mut adapter::Rng) -> Vec<f64> {
    (0..SLOTS)
        .map(|_| 0.25 + 0.5 * adapter::uniform(rng))
        .collect()
}

/// The service and its listener. They are started by the first set-up of a
/// run and shared by the later ones, which register their tenants over the
/// old ones: the acceptor thread holds the service until the process ends,
/// so a service per set-up would pile their key sets up in memory.
struct Server {
    service: Arc<EvalService>,
    addr: std::net::SocketAddr,
    start_listen_ms: f64,
}

fn setup(kind: Kind, seed: u64, probe_key: bool, server: &mut Option<Server>) -> Res<Fixture> {
    let mut rng = adapter::rng(seed);
    let (params, pool) = match kind {
        Kind::Program => (adapter::params_small(), 8),
        Kind::MixPipelined | Kind::LightOpen => (adapter::params_paper32(), 4),
    };
    let ctx = adapter::context(params)?;
    let t0 = Instant::now();
    let mut keys = adapter::keygen(&ctx, &mut rng);
    let keygen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let steps: Vec<i64> = match kind {
        Kind::Program => adapter::reference_plan(adapter::BSGS_MATVEC_POS, &ctx)?.1,
        Kind::MixPipelined => MIX_STEPS.to_vec(),
        // The open loop rotates nothing; a traced run adds one key so the
        // rotation probes have something to run on.
        Kind::LightOpen if probe_key => vec![1],
        Kind::LightOpen => Vec::new(),
    };
    let t0 = Instant::now();
    for &step in &steps {
        adapter::add_rotation_key(&mut keys, step, &mut rng);
    }
    let rotation_keygen_ms_per_key =
        (!steps.is_empty()).then(|| t0.elapsed().as_secs_f64() * 1e3 / steps.len() as f64);

    let t0 = Instant::now();
    let keyset_frame = adapter::encode_keyset(&ctx, &keys);
    let encode_keyset_ms = t0.elapsed().as_secs_f64() * 1e3;

    if server.is_none() {
        let t0 = Instant::now();
        let service = adapter::service_start(SHARDS);
        let addr = adapter::listen(&service)?;
        *server = Some(Server {
            service,
            addr,
            start_listen_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
    }
    let Server {
        service,
        addr,
        start_listen_ms,
    } = server.as_ref().expect("started above");
    let (service, addr, start_listen_ms) = (Arc::clone(service), *addr, *start_listen_ms);

    // Tenant names are tried in order until every shard has one: affinity
    // is a hash of the name, and two tenants on one shard would leave the
    // other idle.
    let mut tenants: Vec<String> = Vec::new();
    let mut candidate = 0;
    while tenants.len() < TENANTS {
        let name = format!("tenant{candidate}");
        candidate += 1;
        let shard = adapter::shard_of(&service, &name);
        if tenants
            .iter()
            .all(|t| adapter::shard_of(&service, t) != shard)
        {
            tenants.push(name);
        }
    }
    let t0 = Instant::now();
    let mut clients = Vec::new();
    for tenant in &tenants {
        let client = adapter::connect(addr)?;
        adapter::register_chunked(&client, tenant, &keyset_frame)?;
        clients.push(client);
    }
    let register_chunked_ms = t0.elapsed().as_secs_f64() * 1e3 / TENANTS as f64;

    let messages: Vec<Vec<f64>> = (0..pool).map(|_| random_message(&mut rng)).collect();
    let cts: Vec<Ciphertext> = messages
        .iter()
        .map(|m| adapter::encrypt(&keys, &adapter::encode(&ctx, m), &mut rng))
        .collect();
    let frames = cts
        .iter()
        .map(|ct| adapter::encode_ciphertext(&ctx, ct))
        .collect();
    let plain_values: Vec<Vec<f64>> = (0..pool).map(|_| random_message(&mut rng)).collect();
    let pts: Vec<Plaintext> = plain_values
        .iter()
        .map(|m| adapter::encode(&ctx, m))
        .collect();
    let pt_frames = pts
        .iter()
        .map(|pt| adapter::encode_plaintext(&ctx, pt))
        .collect();

    let fixture = Fixture {
        kind,
        ctx,
        keys,
        service,
        tenants,
        clients,
        messages,
        cts,
        frames,
        plain_values,
        pts,
        pt_frames,
        keyset_frame,
        probe_step: steps.first().copied().unwrap_or(1),
        keygen_ms,
        rotation_keygen_ms_per_key,
        encode_keyset_ms,
        start_listen_ms,
        register_chunked_ms,
    };
    // Warm-up: each tenant's decoded keys build their evaluation-form
    // caches on first use, one rotation step at a time.
    for (tenant, client) in fixture.tenants.iter().zip(&fixture.clients) {
        for call in fixture.representative_calls() {
            adapter::request(client, tenant, fixture.op(call))?;
        }
    }
    Ok(fixture)
}

/// What one driver thread saw: its share of the timed phase and the first
/// reply to each distinct request, which every later reply must equal.
#[derive(Default)]
struct Driven {
    timed: Timed,
    first_replies: HashMap<Call, Vec<u8>>,
    queue_depth_max: usize,
    replay_bytes_max: usize,
}

impl Driven {
    /// Books one answered request: identical inputs must give identical
    /// reply bytes, every time.
    fn reply(&mut self, f: &Fixture, call: Call, reply: Res<Vec<u8>>, latency_ns: u64) {
        match reply {
            Ok(frame) => {
                self.timed.latencies_ns.push(latency_ns);
                self.timed.wire_bytes += f.request_bytes(call) + frame.len() as u64;
                let within = latency_ns as f64 <= LIGHT_LATENCY_LIMIT_MS * 1e6;
                match self.first_replies.get(&call) {
                    Some(first) if *first != frame => self.timed.failed += 1,
                    Some(_) => {}
                    None => {
                        self.first_replies.insert(call, frame);
                    }
                }
                if let (Some(n), true) = (self.timed.within_limit.as_mut(), within) {
                    *n += 1;
                }
            }
            Err(_) => self.timed.failed += 1,
        }
    }

    /// Polls the service's public getters, in traced runs only.
    fn poll_service(&mut self, f: &Fixture) {
        if trace::enabled() {
            self.queue_depth_max = self.queue_depth_max.max(adapter::queue_depth(&f.service));
            self.replay_bytes_max = self.replay_bytes_max.max(adapter::replay_bytes(&f.service));
        }
    }
}

/// `serve_program`: one blocking submission after another.
fn drive_program(f: &Fixture, tenant: usize, length: Duration, rng: &mut adapter::Rng) -> Driven {
    let mut d = Driven::default();
    let start = Instant::now();
    while d.timed.attempted < 2 || start.elapsed() < length {
        let call = Call::Program {
            a: adapter::below(rng, f.frames.len()),
        };
        d.timed.attempted += 1;
        d.poll_service(f);
        let t0 = Instant::now();
        let reply = adapter::request(&f.clients[tenant], &f.tenants[tenant], f.op(call));
        let t1 = Instant::now();
        trace::record("serve.tcp.request", t0, t1, d.timed.attempted);
        d.reply(f, call, reply, (t1 - t0).as_nanos() as u64);
    }
    d
}

/// One mix round: six rotations of one ciphertext, two adds, one mul, in
/// an order the seed picks.
fn mix_round(f: &Fixture, rng: &mut adapter::Rng) -> Vec<Call> {
    let pool = f.frames.len();
    let source = adapter::below(rng, pool);
    let mut calls: Vec<Call> = MIX_STEPS
        .iter()
        .map(|&steps| Call::Rotate { a: source, steps })
        .collect();
    for _ in 0..2 {
        calls.push(Call::Add {
            a: adapter::below(rng, pool),
            b: adapter::below(rng, pool),
        });
    }
    calls.push(Call::Mul {
        a: adapter::below(rng, pool),
        b: adapter::below(rng, pool),
    });
    for i in (1..calls.len()).rev() {
        calls.swap(i, adapter::below(rng, i + 1));
    }
    calls
}

/// `serve_mix_pipelined`: a whole round is submitted before its first
/// reply is awaited, one round in flight.
fn drive_mix(f: &Fixture, tenant: usize, length: Duration, rng: &mut adapter::Rng) -> Driven {
    let mut d = Driven::default();
    let (client, name) = (&f.clients[tenant], &f.tenants[tenant]);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed() < length {
        rounds += 1;
        let calls = mix_round(f, rng);
        let mut pending: Vec<(Call, Instant, Res<PendingReply>)> = Vec::with_capacity(calls.len());
        for call in calls {
            d.timed.attempted += 1;
            d.poll_service(f);
            pending.push((
                call,
                Instant::now(),
                adapter::submit(client, name, f.op(call)),
            ));
        }
        for (call, t0, sent) in pending {
            let reply = sent.and_then(adapter::wait);
            let t1 = Instant::now();
            trace::record("serve.tcp.request", t0, t1, rounds);
            d.reply(f, call, reply, (t1 - t0).as_nanos() as u64);
        }
    }
    d
}

struct Sent(PendingReply);

impl InFlight for Sent {
    type Reply = Vec<u8>;

    fn poll(&self, wait: Duration) -> Option<Res<Vec<u8>>> {
        adapter::wait_timeout(&self.0, wait)
    }
}

/// `serve_light_open`: this tenant's half of the arrival schedule.
fn drive_light(f: &Fixture, tenant: usize, length: Duration, rng: &mut adapter::Rng) -> Driven {
    let mut d = Driven::default();
    d.timed.within_limit = Some(0);
    let arrivals = (LIGHT_RATE_PER_S / TENANTS as f64 * length.as_secs_f64()).round() as usize;
    let due_ns = stats::poisson_schedule_ns(arrivals.max(2), length.as_nanos() as u64, || {
        adapter::uniform(rng)
    });
    let pool = f.frames.len();
    let mut pick = || adapter::below(rng, pool);
    let calls: Vec<Call> = (0..due_ns.len())
        .map(|i| match i % 4 {
            0 => Call::Add {
                a: pick(),
                b: pick(),
            },
            1 => Call::Sub {
                a: pick(),
                b: pick(),
            },
            2 => Call::AddPlain {
                a: pick(),
                pt: pick(),
            },
            _ => Call::MulPlain {
                a: pick(),
                pt: pick(),
            },
        })
        .collect();
    // Every arrival is shuffled into place by the seed, so the op mix is
    // even but its order is not periodic.
    let mut calls = calls;
    for i in (1..calls.len()).rev() {
        calls.swap(i, adapter::below(rng, i + 1));
    }
    d.timed.attempted = calls.len() as u64;

    let (client, name) = (&f.clients[tenant], &f.tenants[tenant]);
    let start = Instant::now();
    let mut polled = (0usize, 0usize);
    let mut rss_mb = Vec::new();
    // `d` is written by the completion side only; the lag comes back at
    // the end.
    let lag_ns = loadgen::open_loop(
        start,
        &due_ns,
        Duration::from_secs(10),
        |i| {
            if trace::enabled() {
                polled.0 = polled.0.max(adapter::queue_depth(&f.service));
                polled.1 = polled.1.max(adapter::replay_bytes(&f.service));
            }
            let sent = adapter::submit(client, name, f.op(calls[i])).map(Sent);
            if i % RSS_EVERY == 0 {
                rss_mb.extend(procfs::rss_mb());
            }
            sent
        },
        |done| {
            let due = start + Duration::from_nanos(due_ns[done.index]);
            trace::record(
                "serve.tcp.request",
                due,
                due + Duration::from_nanos(done.latency_ns),
                done.index as u64,
            );
            d.reply(f, calls[done.index], done.reply, done.latency_ns);
        },
    );
    d.timed.lag_ns = lag_ns;
    d.timed.rss_mb = rss_mb;
    (d.queue_depth_max, d.replay_bytes_max) = polled;
    d
}

/// Runs one timed phase: a driver thread per tenant, merged.
fn drive(f: &Fixture, length: Duration, seed: u64) -> Res<Driven> {
    let mut merged = Driven::default();
    let timed = harness::timed_phase(|| {
        let results: Vec<Driven> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..TENANTS)
                .map(|tenant| {
                    s.spawn(move || {
                        let mut rng = adapter::rng(seed ^ (0xD1CE << 8 | tenant as u64));
                        match f.kind {
                            Kind::Program => drive_program(f, tenant, length, &mut rng),
                            Kind::MixPipelined => drive_mix(f, tenant, length, &mut rng),
                            Kind::LightOpen => drive_light(f, tenant, length, &mut rng),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a driver thread panicked"))
                .collect()
        });
        let mut timed = Timed::default();
        for d in results {
            timed.merge(d.timed);
            merged.queue_depth_max = merged.queue_depth_max.max(d.queue_depth_max);
            merged.replay_bytes_max = merged.replay_bytes_max.max(d.replay_bytes_max);
            for (call, frame) in d.first_replies {
                // Both tenants hold the same keys, so they must agree too.
                match merged.first_replies.get(&call) {
                    Some(first) if *first != frame => timed.failed += 1,
                    Some(_) => {}
                    None => {
                        merged.first_replies.insert(call, frame);
                    }
                }
            }
        }
        Ok(timed)
    })?;
    merged.timed = timed;
    Ok(merged)
}

/// Every distinct reply is decrypted and compared with the plaintext
/// computation; a program's, with the unplanned execution of its graph.
fn check(f: &Fixture, replies: &HashMap<Call, Vec<u8>>, failures: &mut Vec<String>) -> Res<()> {
    if replies.is_empty() {
        failures.push("no request completed".into());
    }
    let reference = match f.kind {
        Kind::Program => Some(adapter::reference_plan(adapter::BSGS_MATVEC_POS, &f.ctx)?.0),
        Kind::MixPipelined | Kind::LightOpen => None,
    };
    for (call, frame) in replies {
        let reply = match adapter::decode_ciphertext(&f.ctx, frame) {
            Ok(ct) => ct,
            Err(e) => {
                failures.push(format!("{call:?}: reply does not decode: {e}"));
                continue;
            }
        };
        let got = adapter::decrypt_values(&f.ctx, &f.keys, &reply, SLOTS);
        let want = match (f.expected(*call), call, &reference) {
            (Some(want), _, _) => want,
            (None, Call::Program { a }, Some(reference)) => {
                let inputs = vec![f.cts[*a].clone(); adapter::plan_input_count(reference)];
                let mut eval = adapter::evaluator(&f.ctx);
                let unplanned = adapter::plan_execute(reference, &mut eval, &inputs, &f.keys)?;
                let last = unplanned
                    .outputs
                    .last()
                    .ok_or("reference run produced no output")?;
                adapter::decrypt_values(&f.ctx, &f.keys, last, SLOTS)
            }
            (None, _, _) => continue,
        };
        for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
            if (g - w).abs() > TOLERANCE * w.abs().max(1.0) {
                failures.push(format!(
                    "{call:?} slot {slot}: reply {g:.6}, expected {w:.6}"
                ));
            }
        }
    }
    Ok(())
}

/// The same requests timed at four depths. The depths take turns, round
/// after round, so that a change in the host's speed falls on all four
/// alike; each depth of each call is the median over the rounds, and the
/// onion is the mean over the workload's representative calls.
fn onion(f: &Fixture, budget: Duration) -> Res<Onion> {
    let calls = f.representative_calls();
    let replies = calls
        .iter()
        .map(|&call| f.evaluate(call))
        .collect::<Res<Vec<Ciphertext>>>()?;
    let pool = adapter::buffer_pool(64);
    let (client, tenant) = (&f.clients[0], &f.tenants[0]);
    let mut samples = vec![[const { Vec::new() }; 4]; calls.len()];
    let ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed() < budget {
        rounds += 1;
        for ((&call, reply), depths) in calls.iter().zip(&replies).zip(&mut samples) {
            let t0 = Instant::now();
            f.evaluate(call)?;
            depths[0].push(ns(t0));
            let t0 = Instant::now();
            f.codec(call, reply, &pool)?;
            depths[1].push(ns(t0));
            // The request is built (operands cloned) before the clock starts.
            let request = f.request(call);
            let t0 = Instant::now();
            adapter::service_call(&f.service, tenant, request)?;
            depths[2].push(ns(t0));
            let t0 = Instant::now();
            adapter::request(client, tenant, f.op(call))?;
            depths[3].push(ns(t0));
        }
    }
    let depth = |d: usize| {
        let sum: u64 = samples
            .iter()
            .map(|depths| stats::median(&depths[d]).expect("three rounds"))
            .sum();
        (sum as f64 / calls.len() as f64).round() as i64
    };
    Ok(Onion {
        eval_ns: depth(0),
        wire_ns: depth(1),
        service_ns: depth(2),
        tcp_ns: depth(3),
    })
}

pub fn run(opts: &Options, kind: Kind) -> Res<Outcome> {
    let mut out = Outcome {
        service_shards: SHARDS,
        client_threads: TENANTS,
        ..Outcome::default()
    };
    let mut server = None;
    let t0 = Instant::now();
    let f = setup(kind, opts.seed, opts.traced, &mut server)?;
    out.setup_s.push(t0.elapsed().as_secs_f64());

    if !opts.traced {
        let driven = drive(&f, opts.run_length(), opts.seed)?;
        check(&f, &driven.first_replies, &mut out.check_failures)?;
        out.timed = driven.timed;
        out.mark_peak_rss()?;
        // In the open loop the peak is set by the longest stall of the host
        // (requests pile up at about 2 MB each: 74 MB read 84, 96 and 109 MB
        // in runs of unchanged code), not by the program. The median of the
        // resident set sampled through the run is steady, and still shows
        // whatever the service keeps.
        if let Some(mb) = stats::median_f64(&out.timed.rss_mb) {
            out.peak_rss_mb = Some(mb);
        }
        // The set-ups that steady `setup_s` come last, each after the one
        // before it is dropped, connections and all.
        drop(f);
        for _ in 1..kind.setups() {
            let t0 = Instant::now();
            let again = setup(kind, opts.seed, false, &mut server)?;
            out.setup_s.push(t0.elapsed().as_secs_f64());
            drop(again);
        }
        if let Some(server) = server {
            adapter::service_shutdown(&server.service);
        }
        return Ok(out);
    }

    let third = opts.run_length() / 3;
    out.timed = drive(&f, third, opts.seed)?.timed;
    let before = adapter::registry_snapshot();
    trace::set_enabled(true);
    let traced = drive(&f, third, opts.seed ^ 1)?;
    trace::set_enabled(false);
    let delta = harness::registry_since(&before, &adapter::registry_snapshot());
    check(&f, &traced.first_replies, &mut out.check_failures)?;

    let spans = trace::take();
    let requests = traced.timed.completed().max(1);
    harness::registry_layers(&mut out, &delta, requests);
    out.layer(
        "wire.bytes_per_op",
        traced.timed.wire_bytes as f64 / requests as f64,
    );
    out.layer("serve.queue_depth.max", traced.queue_depth_max as f64);
    out.layer("serve.replay_bytes.max", traced.replay_bytes_max as f64);
    harness::traced_phase_layers(&mut out, &traced.timed);
    out.layer("ckks.keygen.ms", f.keygen_ms);
    if let Some(ms) = f.rotation_keygen_ms_per_key {
        out.layer("ckks.rotation_keygen.ms_per_key", ms);
    }
    out.layer("wire.encode_keyset.ms", f.encode_keyset_ms);
    let t0 = Instant::now();
    adapter::decode_keyset(&f.keyset_frame)?;
    out.layer("wire.decode_keyset.ms", t0.elapsed().as_secs_f64() * 1e3);
    out.layer("serve.start_listen.ms", f.start_listen_ms);
    out.layer("serve.register_chunked.ms", f.register_chunked_ms);

    let o = onion(&f, third / 2)?;
    if o.layers_sum_ns() != o.tcp_ns {
        out.check_failures
            .push("onion layers do not sum to the TCP depth".into());
    }
    out.layer("serve.onion.eval_ns", o.eval_ns as f64);
    out.layer("serve.onion.wire_ns", o.wire_ns as f64);
    out.layer("serve.onion.service_ns", o.service_ns as f64);
    out.layer("serve.onion.tcp_ns", o.tcp_ns as f64);
    out.layer("serve.service.overhead_ns", o.service_overhead_ns() as f64);
    out.layer("serve.tcp.overhead_ns", o.tcp_overhead_ns() as f64);

    let slice = third / 2 / (probes::COUNT + probes::PROGRAM_COUNT);
    if kind == Kind::Program {
        let program = adapter::BSGS_MATVEC_POS;
        let plan = adapter::parse_and_plan(program, &f.ctx)?;
        out.layer(
            "core.plan.nodes_after",
            adapter::plan_nodes_after(&plan) as f64,
        );
        out.layer(
            "core.plan.hoist_batches",
            adapter::plan_hoist_batches(&plan) as f64,
        );
        probes::program(&mut out, program, &f.ctx, slice)?;
    }
    probes::run(&mut out, &f.ctx, &f.keys, &f.cts[0], f.probe_step, slice)?;
    adapter::service_shutdown(&f.service);
    harness::write_trace(opts, &spans)?;
    Ok(out)
}
