//! `drive`: the load generator. Closed-loop connections replay their
//! scripts (`--conn FILE`, or `--conn PRE+LOOP` to run PRE once and then
//! repeat LOOP) for `--seconds`; an optional open-loop probe
//! (`--probe FILE --rate R`) sends its request every 1/R seconds and is
//! timed from when each request was due. `--seconds 0` runs each
//! closed-loop script once through instead. Every response is checked
//! against the script's expectation.
//!
//! `--group N` makes every N consecutive requests of a closed-loop
//! connection one operation, timed as the sum of their latencies (a
//! writer step, a read-mix period). `--rss-pid PID --rss-after N` reads
//! the peak RSS of PID once the N-th closed-loop request (over all
//! connections) has completed. The report (JSON on stdout) carries
//! per-class latency samples, operation times, failure counts, generator
//! lateness and that RSS reading.

use crate::util::{answer_hash, flag, flags, hash64, need, Json};
use rdfsum_server::{Client, Response};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// One script line.
#[derive(Clone)]
pub struct Step {
    pub class: String,
    pub expect: String,
    pub request: String,
}

/// Reads a script file, substituting the graph name for `@G`.
pub fn read_script(path: &str, graph: &str) -> Result<Vec<Step>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut it = l.splitn(3, '\t');
            match (it.next(), it.next(), it.next()) {
                (Some(c), Some(e), Some(r)) => Ok(Step {
                    class: c.to_string(),
                    expect: e.to_string(),
                    request: r.replace("@G", graph),
                }),
                _ => Err(format!("{path}: malformed script line `{l}`")),
            }
        })
        .collect()
}

/// Checks one response against its expectation; `Err` names the
/// mismatch.
fn check(step: &Step, resp: &Response) -> Result<(), String> {
    if !resp.is_ok() {
        return Err(format!("{}: {}", step.class, resp.status));
    }
    let field = |k: &str| resp.field(k).unwrap_or("");
    for part in step.expect.split(',') {
        let (k, v) = part.split_once('=').unwrap_or((part, ""));
        let ok = match k {
            "rows" => field("rows") == v && field("truncated") == "0",
            "trunc" => field("rows") == v && field("truncated") == "1",
            "hash" => {
                let body = resp.body_str().unwrap_or("");
                let mut lines = body.lines();
                let header = lines.next().unwrap_or("");
                let mut rows: Vec<String> = lines.map(str::to_string).collect();
                format!("{:x}", answer_hash(header, &mut rows)) == v
            }
            "body" => {
                let h = hash64(resp.body.as_deref().unwrap_or(&[]));
                format!("{h:x}") == v
            }
            "applied" => field("applied") == v,
            _ => false,
        };
        if !ok {
            return Err(format!(
                "{}: expected {part}, got `{}`",
                step.class, resp.status
            ));
        }
    }
    Ok(())
}

/// What one connection observed.
#[derive(Default)]
struct Tally {
    latencies: BTreeMap<String, Vec<f64>>,
    ops: Vec<f64>,
    bytes: BTreeMap<String, u64>,
    late: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, step: &Step, result: std::io::Result<Response>, ms: f64) -> bool {
        self.attempted += 1;
        let verdict = match &result {
            Ok(resp) => check(step, resp),
            Err(e) => Err(format!("{}: transport: {e}", step.class)),
        };
        if let Ok(resp) = &result {
            let n = resp.body.as_ref().map_or(0, |b| b.len() as u64);
            *self.bytes.entry(step.class.clone()).or_default() += n;
        }
        self.latencies
            .entry(step.class.clone())
            .or_default()
            .push(ms);
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                result.is_ok()
            }
        }
    }
}

/// Peak RSS (`VmHWM`) of a process in MB.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reads the measured process's peak RSS at a fixed request count, so the
/// reading covers the same traffic however fast the run goes.
struct RssProbe {
    pid: u32,
    after: u64,
    completed: AtomicU64,
    mb: OnceLock<f64>,
}

impl RssProbe {
    fn tick(&self) {
        if self.completed.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
            if let Some(mb) = peak_rss_mb(self.pid) {
                let _ = self.mb.set(mb);
            }
        }
    }
}

fn closed_loop(
    addr: &str,
    pre: Vec<Step>,
    body: Vec<Step>,
    group: usize,
    rss: Option<&RssProbe>,
    go: &Barrier,
    deadline: Duration,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = Client::connect(addr);
    go.wait();
    let start = Instant::now();
    let Ok(client) = client.as_mut() else {
        tally.attempted = 1;
        tally.failed = 1;
        tally.errors.push("connect failed".into());
        return tally;
    };
    // A zero deadline means "run the script once through".
    let once = deadline.is_zero();
    let mut steps: Box<dyn Iterator<Item = &Step>> = if once {
        Box::new(pre.iter().chain(body.iter()))
    } else {
        Box::new(pre.iter().chain(body.iter().cycle()))
    };
    let (mut op_ms, mut in_op) = (0.0, 0);
    while once || start.elapsed() < deadline {
        let Some(step) = steps.next() else { break };
        let t0 = Instant::now();
        let result = client.request(&step.request);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let alive = tally.record(step, result, ms);
        op_ms += ms;
        in_op += 1;
        if in_op == group {
            tally.ops.push(op_ms);
            (op_ms, in_op) = (0.0, 0);
        }
        if let Some(r) = rss {
            r.tick();
        }
        if !alive {
            break; // the connection is gone
        }
    }
    tally
}

fn open_loop(addr: &str, step: Step, rate: f64, go: &Barrier, deadline: Duration) -> Tally {
    let mut tally = Tally::default();
    let mut client = Client::connect(addr);
    go.wait();
    let start = Instant::now();
    let Ok(client) = client.as_mut() else {
        tally.attempted = 1;
        tally.failed = 1;
        tally.errors.push("probe connect failed".into());
        return tally;
    };
    let period = Duration::from_secs_f64(1.0 / rate);
    for i in 0u32.. {
        let due = period * i;
        if due >= deadline {
            break;
        }
        let now = start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = start.elapsed();
        tally.late.push((sent - due).as_secs_f64() * 1e3);
        let result = client.request(&step.request);
        let ms = (start.elapsed() - due).as_secs_f64() * 1e3;
        if !tally.record(&step, result, ms) {
            break;
        }
    }
    tally
}

pub fn drive(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").ok_or("missing --addr")?;
    let graph = flag(args, "--graph").ok_or("missing --graph")?;
    let seconds: f64 = need(args, "--seconds")?;
    let deadline = Duration::from_secs_f64(seconds);
    let group: usize = flag(args, "--group").map_or(Ok(1), |_| need(args, "--group"))?;
    let rss = match flag(args, "--rss-pid") {
        Some(_) => Some(Arc::new(RssProbe {
            pid: need(args, "--rss-pid")?,
            after: need(args, "--rss-after")?,
            completed: AtomicU64::new(0),
            mb: OnceLock::new(),
        })),
        None => None,
    };
    let mut closed = Vec::new();
    for spec in flags(args, "--conn") {
        let (pre, body) = match spec.split_once('+') {
            Some((p, b)) => (read_script(p, &graph)?, read_script(b, &graph)?),
            None => (Vec::new(), read_script(&spec, &graph)?),
        };
        closed.push((pre, body));
    }
    let probe = match flag(args, "--probe") {
        Some(p) => {
            let rate: f64 = need(args, "--rate")?;
            let step = read_script(&p, &graph)?
                .into_iter()
                .next()
                .ok_or("empty probe script")?;
            Some((step, rate))
        }
        None => None,
    };
    let go = Arc::new(Barrier::new(
        closed.len() + usize::from(probe.is_some()) + 1,
    ));
    let mut handles = Vec::new();
    for (pre, body) in closed {
        let (addr, go, rss) = (addr.clone(), Arc::clone(&go), rss.clone());
        handles.push((
            false,
            std::thread::spawn(move || {
                closed_loop(&addr, pre, body, group, rss.as_deref(), &go, deadline)
            }),
        ));
    }
    if let Some((step, rate)) = probe {
        let (addr, go) = (addr.clone(), Arc::clone(&go));
        handles.push((
            true,
            std::thread::spawn(move || open_loop(&addr, step, rate, &go, deadline)),
        ));
    }
    go.wait();
    let t0 = Instant::now();
    let mut closed_done = 0u64;
    let mut all = Tally::default();
    let mut probe_tally = Tally::default();
    for (is_probe, h) in handles {
        let t = h.join().map_err(|_| "load-generator thread panicked")?;
        if is_probe {
            probe_tally = t;
            continue;
        }
        closed_done += t.attempted - t.failed;
        all.attempted += t.attempted;
        all.failed += t.failed;
        all.errors.extend(t.errors);
        all.ops.extend(t.ops);
        for (k, v) in t.latencies {
            all.latencies.entry(k).or_default().extend(v);
        }
        for (k, v) in t.bytes {
            *all.bytes.entry(k).or_default() += v;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let mut lat = Json::obj();
    for (k, v) in &all.latencies {
        lat.set(k, Json::nums(v));
    }
    if let Some(v) = probe_tally.latencies.get("probe") {
        lat.set("probe", Json::nums(v));
    }
    let mut bytes = Json::obj();
    for (k, v) in &all.bytes {
        bytes.set(k, Json::Num(*v as f64));
    }
    let mut out = Json::obj();
    out.set("latency_ms", lat);
    out.set("op_ms", Json::nums(&all.ops));
    out.set("response_bytes", bytes);
    if let Some(&mb) = rss.as_ref().and_then(|r| r.mb.get()) {
        out.set("rss_mb", Json::Num(mb));
    }
    out.set("probe_late_ms", Json::nums(&probe_tally.late));
    out.set("closed_completed", Json::Num(closed_done as f64));
    out.set("elapsed_s", Json::Num(elapsed));
    out.set(
        "attempted",
        Json::Num((all.attempted + probe_tally.attempted) as f64),
    );
    out.set(
        "failed",
        Json::Num((all.failed + probe_tally.failed) as f64),
    );
    let errors: Vec<Json> = all
        .errors
        .into_iter()
        .chain(probe_tally.errors)
        .map(Json::Str)
        .collect();
    out.set("errors", Json::Arr(errors));
    println!("{}", out.render());
    Ok(())
}
