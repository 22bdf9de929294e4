//! `serve-hot` and `serve-sweep`: a `biaslab serve` daemon in a child
//! process (this binary with `--child-daemon`), driven over a unix socket
//! by two closed-loop connections — every real client (`repro`,
//! `loadgen`) waits for its reply before sending the next request.
//!
//! Both compare every response with an in-process reference taken on a
//! private `Orchestrator` (serve ≡ in-process). Counters come from the
//! daemon's `stats` request around each round; a traced round also asks
//! the daemon for the spans it recorded inside the round (`window` on its
//! stdin).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use biaslab_core::harness::{MeasureError, Measurement};
use biaslab_core::serve::{
    client_seed, encode_control, encode_measure, encode_response, encode_shutdown, encode_sweep,
    encode_sweep_done, encode_sweep_item, line_ev, line_id, line_status, random_spec,
    stats_counter, sweep_setups, verify_sealed, Addr, Client, MeasureSpec, Server, ServerConfig,
};
use biaslab_core::{telemetry, LinkOrder, Orchestrator};
use biaslab_workloads::InputSize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Outcome, Tally, Values};
use crate::spans;
use crate::util::{
    cores, fresh_dir, median, num, percentile, print_ready, print_report, Proc, Report,
};

/// Requests each serve-hot connection sends per round (~0.4 s at the
/// ~47k requests/s two connections reach on a 2-core host).
const HOT_ROUND: usize = 10_000;
/// Rounds each serve-hot daemon serves after its warm-up: enough rounds
/// per run for a steady median, and enough daemons for a median set-up.
const HOT_ROUNDS_PER_DAEMON: usize = 3;
/// Draws of `serve::random_spec` that find its key space: its rarest key
/// has probability 1/768, so 50,000 draws miss none.
const KEY_DRAWS: usize = 50_000;
/// Environment sizes in each serve-sweep request.
const SWEEP_POINTS: usize = 16;
/// Id of the benchmark's own `stats` and `shutdown` requests.
const CONTROL_ID: u64 = 999_999_999;

/// A client that makes one attempt per request. `Client::new` replays a
/// request after EOF, a torn line or a bad seal, which would turn a
/// transport failure into a success; here it is a failed operation, and
/// the next request reconnects.
fn client(addr: &Addr) -> Client {
    Client::new(addr.clone()).with_attempts(1)
}

/// The request line of `spec` with id 0: the key a drawn spec is looked
/// up by.
fn key_line(spec: &MeasureSpec) -> String {
    encode_measure(0, spec)
}

/// Child side: a daemon configured as `biaslab serve` runs it, until a
/// `shutdown` request. Each `window` line on stdin prints the span
/// aggregates recorded since the previous one.
pub fn child(sock: &Path, journal: Option<PathBuf>, traced: bool) -> Result<(), String> {
    if traced {
        telemetry::enable();
    }
    let mut cfg = ServerConfig::new(Addr::Unix(sock.to_path_buf()));
    cfg.workers = cores();
    cfg.journal_dir = journal;
    let server = Server::start(&cfg, Arc::new(Orchestrator::from_env()))?;
    print_ready();
    let windows = std::thread::spawn(move || {
        let mut since = telemetry::now_us();
        for line in std::io::stdin().lock().lines() {
            if !matches!(line, Ok(l) if l.trim() == "window") {
                break;
            }
            let now = telemetry::now_us();
            let mut r = Report::new();
            spans::drain_into(&mut r, since, now);
            print_report(&r);
            since = now;
        }
    });
    server.run_until_shutdown();
    let mut r = Report::new();
    r.insert("rss_mb".to_owned(), crate::util::peak_rss_mb().to_string());
    // The parent closes stdin once the daemon has stopped.
    windows.join().map_err(|_| "window thread panicked")?;
    print_report(&r);
    Ok(())
}

/// A daemon child and its address.
struct Daemon {
    proc: Proc,
    addr: Addr,
    sock: PathBuf,
}

impl Daemon {
    /// Spawns a daemon on `<work>/<name>.sock`; returns it with its
    /// spawn-to-ready time.
    fn start(
        work: &Path,
        name: &str,
        journal: bool,
        traced: bool,
    ) -> Result<(Daemon, f64), String> {
        let sock = work.join(format!("{name}.sock"));
        let mut args = vec!["--child-daemon".to_owned(), sock.display().to_string()];
        if journal {
            let dir = work.join(format!("{name}-results")).join("sweeps");
            fresh_dir(&dir).map_err(|e| format!("journal dir: {e}"))?;
            args.push("--journal".to_owned());
            args.push(dir.display().to_string());
        }
        if traced {
            args.push("--traced".to_owned());
        }
        let mut proc = Proc::spawn(&args)?;
        proc.wait_ready()?;
        let ready = proc.spawned.elapsed().as_secs_f64();
        let addr = Addr::Unix(sock.clone());
        Ok((Daemon { proc, addr, sock }, ready))
    }

    /// The daemon's counters (`orch.*`, `serve.*`, `uarch.*`).
    fn stats(&self) -> Result<String, String> {
        let ex = client(&self.addr)
            .request(&encode_control(CONTROL_ID, "stats"))
            .map_err(|e| format!("stats: {e}"))?;
        Ok(ex.terminal().to_owned())
    }

    /// Span aggregates since the previous window.
    fn window(&mut self) -> Result<Report, String> {
        self.proc.send("window")?;
        self.proc.read_report()
    }

    /// Shuts the daemon down and returns its final report.
    fn stop(self) -> Result<Report, String> {
        client(&self.addr)
            .request(&encode_shutdown(CONTROL_ID, false))
            .map_err(|e| format!("shutdown: {e}"))?;
        let r = self.proc.finish();
        let _ = std::fs::remove_file(&self.sock);
        r
    }
}

/// What the client side of one round saw.
#[derive(Default)]
struct ClientSide {
    /// Latency of each operation, seconds.
    latencies: Vec<f64>,
    /// Time to the first item of each sweep, seconds.
    first_items: Vec<f64>,
    attempted: u64,
    failed: u64,
    retries: u64,
}

impl ClientSide {
    fn merge(&mut self, o: ClientSide) {
        self.latencies.extend(o.latencies);
        self.first_items.extend(o.first_items);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.retries += o.retries;
    }

    fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("steadybench: FAILED: {why}");
    }
}

/// Runs one round against `daemon` and returns the client side plus the
/// round's layer report: counter deltas from `stats`, and for a traced
/// round the daemon's spans inside it and the client's request time.
fn round(
    daemon: &mut Daemon,
    traced: bool,
    body: impl FnOnce() -> ClientSide,
) -> Result<(ClientSide, f64, Report), String> {
    let before = daemon.stats()?;
    if traced {
        daemon.window()?;
        let _ = telemetry::drain();
    }
    let start = Instant::now();
    let side = body();
    let wall = start.elapsed().as_secs_f64();
    let mut r = if traced {
        daemon.window()?
    } else {
        Report::new()
    };
    if traced {
        let mut client = Report::new();
        spans::drain_into(&mut client, 0, u64::MAX);
        let key = format!("span.{}.us", spans::REQUEST);
        r.insert(key.clone(), num(&client, &key).to_string());
    }
    let after = daemon.stats()?;
    let delta = |name: &str| {
        stats_counter(&after, name).unwrap_or(0) as f64
            - stats_counter(&before, name).unwrap_or(0) as f64
    };
    for (to, from, scale) in [
        ("orch.simulated", "orch.simulated", 1.0),
        ("orch.hits", "orch.hits", 1.0),
        ("orch.misses", "orch.misses", 1.0),
        ("orch.cached", "orch.cached", 1.0),
        ("orch.busy_s", "orch.busy_us", 1e-6),
        ("orch.sweep_wall_s", "orch.sweep_wall_us", 1e-6),
        ("uarch.blockcache_hits", "uarch.blockcache.hit", 1.0),
        ("uarch.blockcache_misses", "uarch.blockcache.miss", 1.0),
        ("serve.shed", "serve.shed", 1.0),
        ("serve.proto_errors", "serve.proto_errors", 1.0),
        ("serve.torn_writes", "serve.torn_writes", 1.0),
        ("serve.journal_items", "serve.sweep.journal_items", 1.0),
        ("serve.resumed_items", "serve.sweep.resumed_items", 1.0),
    ] {
        r.insert(to.to_owned(), (delta(from) * scale).to_string());
    }
    let queue_max = stats_counter(&after, "serve.queue_depth_max").unwrap_or(0);
    r.insert("serve.queue_depth_max".to_owned(), queue_max.to_string());
    r.insert("serve.retries".to_owned(), side.retries.to_string());
    r.insert("threads".to_owned(), cores().to_string());
    Ok((side, wall, r))
}

/// Layer values of one serve round; `own` names the daemon span that
/// covers the orchestrator's share of a request (`measure` for single
/// measurements, `sweep` for sweeps).
fn round_layers(r: &Report, wall: f64, ops: f64, items: f64, own: &str) -> Values {
    let mut v = layers::common(r);
    let (hits, misses) = (num(r, "orch.hits"), num(r, "orch.misses"));
    if hits + misses > 0.0 {
        v.insert("serve.hit_ratio", hits / (hits + misses));
    }
    let request_us = num(r, &format!("span.{}.us", spans::REQUEST));
    if request_us > 0.0 {
        v.insert(
            "serve.self_s",
            (request_us - num(r, &format!("span.{own}.us"))) / 1e6,
        );
    }
    v.insert("suite_s", wall);
    v.insert("rps", ops / wall);
    v.insert("items_per_s", items / wall);
    v
}

/// Latency percentiles of operations (latencies in seconds).
fn latency_metrics(v: &mut Values, lat: &[f64]) {
    v.insert("p50_us", percentile(lat, 0.5) * 1e6);
    v.insert("p99_us", percentile(lat, 0.99) * 1e6);
    v.insert("sweep_p50_ms", percentile(lat, 0.5) * 1e3);
    v.insert("sweep_p90_ms", percentile(lat, 0.9) * 1e3);
}

// ---------------------------------------------------------------------------
// serve-hot

/// Every key `serve::random_spec` draws — the request generator
/// `loadgen` uses — found by drawing it from a fixed seed and ordered by
/// request line. A key's index is its request id, so a response's bytes
/// are comparable across requests.
fn hot_keys() -> Vec<MeasureSpec> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut keys = BTreeMap::new();
    for _ in 0..KEY_DRAWS {
        let spec = random_spec(&mut rng);
        keys.entry(key_line(&spec)).or_insert(spec);
    }
    keys.into_values().collect()
}

/// Sends every key once over two connections; returns the terminal lines
/// by key index.
fn warm(addr: &Addr, keys: &[MeasureSpec]) -> Result<Vec<String>, String> {
    let lines: Vec<Mutex<String>> = keys.iter().map(|_| Mutex::default()).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|c| {
                let lines = &lines;
                s.spawn(move || -> Result<(), String> {
                    let mut client = client(addr);
                    for (i, key) in keys.iter().enumerate().filter(|(i, _)| i % 2 == c) {
                        let ex = client
                            .request(&encode_measure(i as u64, key))
                            .map_err(|e| format!("warm-up request {i}: {e}"))?;
                        *lines[i].lock().expect("no panics hold it") = ex.terminal().to_owned();
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().map_err(|_| "warm-up thread panicked".to_owned())?)
    })?;
    Ok(lines
        .into_iter()
        .map(|l| l.into_inner().expect("no panics hold it"))
        .collect())
}

/// Expected results, per spec and env point.
type Expected = Vec<Vec<Result<Measurement, MeasureError>>>;

/// In-process reference: every spec (swept over `envs`, or alone when
/// `envs` is empty) measured with `Orchestrator::measure` on a private
/// orchestrator, one thread per core.
fn reference(specs: &[MeasureSpec], envs: &[u64]) -> Result<Expected, String> {
    let orch = Orchestrator::new();
    let mut jobs = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let h = orch
            .harness(&s.bench)
            .ok_or(format!("unknown benchmark {}", s.bench))?;
        let base = s.setup().ok_or(format!("bad spec {s:?}"))?;
        let setups = if envs.is_empty() {
            vec![base]
        } else {
            sweep_setups(&base, envs)
        };
        jobs.extend(setups.into_iter().map(|setup| (i, h.clone(), setup)));
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Result<Measurement, MeasureError>)>> = Mutex::default();
    std::thread::scope(|s| {
        for _ in 0..cores() {
            s.spawn(|| loop {
                let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((_, h, setup)) = jobs.get(j) else {
                    break;
                };
                let r = orch.measure(h, setup, InputSize::Test);
                done.lock().expect("no panics hold it").push((j, r));
            });
        }
    });
    let mut done = done.into_inner().expect("no panics hold it");
    done.sort_by_key(|(j, _)| *j);
    let mut out: Expected = specs.iter().map(|_| Vec::new()).collect();
    for (j, r) in done {
        out[jobs[j].0].push(r);
    }
    Ok(out)
}

/// Runs `serve-hot`: a fresh daemon, warmed with every key (its set-up),
/// serves `HOT_ROUNDS_PER_DAEMON` rounds of two connections sending
/// `HOT_ROUND` requests each; then the next daemon.
pub fn hot(work: &Path, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let keys = hot_keys();
    let index: BTreeMap<String, usize> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (key_line(k), i))
        .collect();
    let lines: Vec<String> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| encode_measure(i as u64, k))
        .collect();
    let expect = reference(&keys, &[])?;
    let mut tally = Tally::default();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut warm_lines: Option<Vec<String>> = None;
    let mut rngs: Vec<StdRng> = (0..2)
        .map(|c| StdRng::seed_from_u64(client_seed(seed, c)))
        .collect();
    let mut passes = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut daemons = 0;
    while daemons < 1 + usize::from(trace) || Instant::now() < deadline {
        let traced = trace && daemons % 2 == 1;
        daemons += 1;
        let start = Instant::now();
        let (mut daemon, _) = Daemon::start(work, "hot", false, traced)?;
        let warmed = warm(&daemon.addr, &keys)?;
        let setup = start.elapsed().as_secs_f64();
        tally.attempted += keys.len() as u64;
        match &warm_lines {
            None => {
                // serve ≡ in-process, on every key.
                for (i, (line, r)) in warmed.iter().zip(&expect).enumerate() {
                    if encode_response(i as u64, &r[0]) != *line || line_status(line) != Some("ok")
                    {
                        tally.fail(&format!(
                            "key {i}: daemon response differs from in-process measure"
                        ));
                    }
                }
                warm_lines = Some(warmed);
            }
            Some(first) => {
                for (i, (a, b)) in first.iter().zip(&warmed).enumerate() {
                    if a != b {
                        tally.fail(&format!("warm-up of key {i} differs between daemons"));
                    }
                }
            }
        }
        let warm = warm_lines.as_deref().expect("set by the first daemon");
        if traced {
            telemetry::enable();
        }
        let addr = daemon.addr.clone();
        for _ in 0..HOT_ROUNDS_PER_DAEMON {
            // Each connection's requests, drawn before the round is timed.
            let draws: Vec<Vec<Option<usize>>> = rngs
                .iter_mut()
                .map(|rng| {
                    (0..HOT_ROUND)
                        .map(|_| index.get(&key_line(&random_spec(rng))).copied())
                        .collect()
                })
                .collect();
            let (side, wall, r) = round(&mut daemon, traced, || {
                hot_round(&addr, &draws, &lines, warm, traced)
            })?;
            // Per-round percentiles (20,000 requests each), medians over
            // rounds: a slow stretch of the host moves fewer rounds than
            // it moves pooled tail samples.
            let ops = side.attempted as f64;
            let mut v = round_layers(&r, wall, ops, ops, "measure");
            latency_metrics(&mut v, &side.latencies);
            tally.attempted += side.attempted;
            tally.failed += side.failed;
            passes.push((traced, v));
        }
        telemetry::disable();
        let report = daemon.stop()?;
        if !traced {
            setups.push(setup);
            rss.push(num(&report, "rss_mb"));
        }
    }
    let mut out = Outcome::from_passes(tally, &passes, HOT_STABLE);
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("peak_rss_mb", median(&rss));
    Ok(out)
}

/// Counters that must repeat exactly in every serve-hot round.
const HOT_STABLE: &[&str] = &[
    "orch.simulated",
    "orch.hits",
    "orch.misses",
    "uarch.blockcache_hits",
    "uarch.blockcache_misses",
    "serve.shed",
    "serve.proto_errors",
    "serve.torn_writes",
];

/// One serve-hot round: each connection sends its drawn requests
/// closed-loop; every response must equal its key's warm-up bytes. A
/// drawn spec outside the warmed keys, a failed exchange and a wrong
/// response are each one failed operation.
fn hot_round(
    addr: &Addr,
    draws: &[Vec<Option<usize>>],
    lines: &[String],
    warm: &[String],
    traced: bool,
) -> ClientSide {
    std::thread::scope(|s| {
        let workers: Vec<_> = draws
            .iter()
            .map(|draws| {
                s.spawn(move || {
                    let mut client = client(addr);
                    let mut side = ClientSide::default();
                    for &drawn in draws {
                        side.attempted += 1;
                        let Some(i) = drawn else {
                            side.fail("random_spec drew a key outside the warmed set");
                            continue;
                        };
                        let span = traced.then(|| telemetry::Span::open(spans::REQUEST, "measure"));
                        let start = Instant::now();
                        let res = client.request(&lines[i]);
                        let lat = start.elapsed().as_secs_f64();
                        if let Some(span) = span {
                            span.close();
                        }
                        match res {
                            Ok(ex) if ex.terminal() == warm[i] => side.latencies.push(lat),
                            Ok(ex) => side.fail(&format!("key {i}: response {}", ex.terminal())),
                            Err(e) => {
                                side.retries += u64::from(e.retries);
                                side.fail(&format!("key {i}: {e}"));
                            }
                        }
                    }
                    side
                })
            })
            .collect();
        let mut all = ClientSide::default();
        for w in workers {
            all.merge(w.join().expect("client threads do not panic"));
        }
        all
    })
}

// ---------------------------------------------------------------------------
// serve-sweep

/// The sweep space: the 24 benchmark × machine × level combinations of
/// `random_spec`'s keys × 2 link orders (default and one seeded random
/// order) = 48 base setups, each swept over the same seeded 16-point env
/// grid (768 distinct keys), in a seeded order.
fn sweep_space(seed: u64) -> (Vec<MeasureSpec>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let shuffled = LinkOrder::Random(rng.gen_range(0..4u64));
    let mut bases = Vec::new();
    for key in hot_keys() {
        if key.order == LinkOrder::Default && key.env == 0 {
            for order in [LinkOrder::Default, shuffled] {
                bases.push(MeasureSpec {
                    order,
                    ..key.clone()
                });
            }
        }
    }
    for i in (1..bases.len()).rev() {
        bases.swap(i, rng.gen_range(0..=i));
    }
    let mut envs: Vec<u64> = Vec::new();
    while envs.len() < SWEEP_POINTS {
        let e = rng.gen_range(23..=4096u64);
        if !envs.contains(&e) {
            envs.push(e);
        }
    }
    envs.sort_unstable();
    (bases, envs)
}

/// One connection's sweeps, read line by line so the first item's arrival
/// is timed; every line is checked against the reference.
fn sweep_conn(
    sock: &Path,
    order: &[usize],
    bases: &[MeasureSpec],
    envs: &[u64],
    expect: &[Vec<Result<Measurement, MeasureError>>],
    conn: u64,
    traced: bool,
) -> ClientSide {
    let mut side = ClientSide::default();
    let connected = UnixStream::connect(sock).and_then(|w| Ok((BufReader::new(w.try_clone()?), w)));
    let (mut reader, mut writer) = match connected {
        Ok(c) => c,
        Err(e) => {
            side.attempted += order.len() as u64;
            side.failed += order.len() as u64;
            eprintln!("steadybench: FAILED: connect: {e}");
            return side;
        }
    };
    for (j, &b) in order.iter().enumerate() {
        let id = conn * 1000 + j as u64 + 1;
        side.attempted += 1;
        let span = traced.then(|| telemetry::Span::open(spans::REQUEST, "sweep"));
        let start = Instant::now();
        let mut first = None;
        let mut seq = 0u64;
        let mut bad = None;
        if let Err(e) = writeln!(writer, "{}", encode_sweep(id, &bases[b], envs)) {
            bad = Some(format!("write: {e}"));
        }
        while bad.is_none() {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => bad = Some("connection closed".to_owned()),
                Err(e) => bad = Some(format!("read: {e}")),
                Ok(_) => {}
            }
            let line = line.trim_end();
            if bad.is_some() {
                break;
            }
            if !verify_sealed(line) || line_id(line) != Some(id) {
                bad = Some(format!("torn or foreign line {line}"));
            } else if line_ev(line) == Some("item") {
                first.get_or_insert_with(|| start.elapsed().as_secs_f64());
                let want = expect[b]
                    .get(seq as usize)
                    .map(|r| encode_sweep_item(id, seq, r));
                if want.as_deref() != Some(line) {
                    bad = Some(format!("item {seq}: {line}"));
                }
                seq += 1;
            } else {
                if line != encode_sweep_done(id, SWEEP_POINTS as u64) || seq != SWEEP_POINTS as u64
                {
                    bad = Some(format!("terminal after {seq} items: {line}"));
                }
                break;
            }
        }
        let lat = start.elapsed().as_secs_f64();
        if let Some(span) = span {
            span.close();
        }
        match bad {
            Some(why) => {
                side.fail(&format!("sweep {id}: {why}"));
                return side;
            }
            None => {
                side.latencies.push(lat);
                side.first_items.extend(first);
            }
        }
    }
    side
}

/// Runs `serve-sweep`: rounds of a cold daemon with its sweep journal on,
/// two connections sending all 48 sweeps, one forward and one reversed.
pub fn sweep(work: &Path, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (bases, envs) = sweep_space(seed);
    let expect = reference(&bases, &envs)?;
    let instructions: u64 = expect
        .iter()
        .flatten()
        .filter_map(|r| r.as_ref().ok())
        .map(|m| m.counters.instructions)
        .sum();
    let forward: Vec<usize> = (0..bases.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    let mut tally = Tally::default();
    let (mut setups, mut rss, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let min_rounds = if trace { 4 } else { 3 };
    while passes.len() < min_rounds || Instant::now() < deadline {
        let traced = trace && passes.len() % 2 == 1;
        if traced {
            telemetry::enable();
        }
        let (mut daemon, ready) = Daemon::start(work, "sweep", true, traced)?;
        let sock = daemon.sock.clone();
        let (side, wall, mut r) = round(&mut daemon, traced, || {
            std::thread::scope(|s| {
                let a = s.spawn(|| sweep_conn(&sock, &forward, &bases, &envs, &expect, 0, traced));
                let b = s.spawn(|| sweep_conn(&sock, &backward, &bases, &envs, &expect, 1, traced));
                let mut side = a.join().expect("client threads do not panic");
                side.merge(b.join().expect("client threads do not panic"));
                side
            })
        })?;
        telemetry::disable();
        let report = daemon.stop()?;
        r.insert(
            "uarch.sim_instructions".to_owned(),
            instructions.to_string(),
        );
        let mut v = round_layers(
            &r,
            wall,
            side.attempted as f64,
            (side.attempted as usize * SWEEP_POINTS) as f64,
            "sweep",
        );
        v.insert("serve.sweep_first_item_ms", median(&side.first_items) * 1e3);
        tally.attempted += side.attempted;
        tally.failed += side.failed;
        if !traced {
            setups.push(ready);
            rss.push(num(&report, "rss_mb"));
            latencies.extend(side.latencies);
        }
        passes.push((traced, v));
    }
    let mut out = Outcome::from_passes(tally, &passes, SWEEP_STABLE);
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("peak_rss_mb", median(&rss));
    latency_metrics(&mut out.e2e, &latencies);
    Ok(out)
}

/// Counters that must repeat exactly in every serve-sweep round. The
/// simulation and hit counts are left out: the sweep path is not
/// single-flight, so they move with `orch.dup_sims`.
const SWEEP_STABLE: &[&str] = &[
    "orch.distinct_keys",
    "serve.shed",
    "serve.proto_errors",
    "serve.torn_writes",
];
