//! `trace`: the in-process traced run. It calls each layer's public
//! functions on the workload's seeded inputs, records a span around every
//! call (name, start, end, parent, request id; kept in memory and written
//! out at the end), and derives the per-layer metrics from the spans and
//! from the service counters. Per-line ingest calls are folded into one
//! aggregate span per chunk of lines, so the span file stays small.
//!
//! The wire side (`server.*`) is measured by the runner against the real
//! server; this run reports the in-process service figures it subtracts.

use crate::data::{default_threads, update_triples};
use crate::drive::{read_script, Step};
use crate::util::{answer_hash, flag, flags, hash64, median, ratio, write_atomic, Json};
use rdf_model::{Graph, PrefixMap};
use rdf_query::{compile, empty_on_summary, explain_with, parse_query, Evaluator};
use rdf_store::TripleStore;
use rdfsum_core::{SummaryCardinality, SummaryEstimator, SummaryKind, SummaryService, WeakDelta};
use rdfsum_server::QUERY_ROW_LIMIT;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Lines folded into one aggregate ingest span.
const CHUNK_LINES: usize = 1 << 16;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    req: u64,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
}

/// The in-memory span recorder. Spans nest through an explicit stack;
/// `aggregate` adds a span standing for many calls, laid out back to back
/// inside its parent.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            req,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id));
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        (end_ns - s.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, req);
        let out = f();
        let dt = self.end(id);
        (out, dt)
    }

    fn aggregate(&mut self, name: &'static str, start_ns: u64, dur_ns: u64, calls: u64) -> u64 {
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            req: 0,
            start_ns,
            end_ns: start_ns + dur_ns,
            calls,
        });
        start_ns + dur_ns
    }

    fn duration(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Per-span self time: duration minus the time its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        (0..self.spans.len())
            .map(|i| self.duration(i).saturating_sub(child[i]))
            .collect()
    }

    fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}\n",
                s.name, s.req, s.start_ns, s.end_ns, s.calls
            ));
        }
        write_atomic(path, out.as_bytes())
    }
}

/// A summary build exactly as the service takes it: the sharded
/// substrate when the build would shard, the lean builder otherwise.
fn build(g: &Graph, kind: SummaryKind, threads: usize) -> rdfsum_core::Summary {
    if rdfsum_core::parallel::shard_count(g.data().len(), threads) > 1 {
        rdfsum_core::SummaryContext::sharded(g, threads).summarize(kind)
    } else {
        rdfsum_core::summarize(g, kind)
    }
}

fn p50_ms(xs: &[f64]) -> f64 {
    median(xs) * 1e3
}

fn p50_us(xs: &[f64]) -> f64 {
    median(xs) * 1e6
}

/// The outcome of checking the run's answers against the scripts.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(what());
            }
        }
    }
}

fn expect_field<'a>(expect: &'a str, key: &str) -> Option<&'a str> {
    expect
        .split(',')
        .find_map(|p| p.strip_prefix(key)?.strip_prefix('='))
}

pub fn trace(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag(args, "--dir").ok_or("missing --dir")?);
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let spans_out = PathBuf::from(flag(args, "--spans").ok_or("missing --spans")?);
    let scale: usize = crate::util::need(args, "--scale")?;
    let seed: u64 = crate::util::need(args, "--seed")?;
    let scripts = flags(args, "--script");
    let threads = default_threads();
    let nt = dir.join("graph.nt");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut checks = Checks::default();
    let mut tr = Tracer::new();

    // Untraced reference: the program's own loader, end to end. It runs
    // before and after the traced ingest; the mean cancels warm-up order.
    // The first pass also keeps the graph's snapshot encoding (made after
    // the clock stops): the traced ingest must encode to the same bytes.
    let untraced_load = |encode: bool| -> Result<(f64, Vec<u8>), String> {
        let t0 = Instant::now();
        let g = rdf_io::load_path(&nt).map_err(|e| e.to_string())?;
        let s = t0.elapsed().as_secs_f64();
        let bytes = if encode {
            rdf_store::snapshot::encode(&g)
                .map_err(|e| e.to_string())?
                .to_vec()
        } else {
            Vec::new()
        };
        Ok((s, bytes))
    };
    let (untraced_a, ref_snapshot) = untraced_load(true)?;

    // ---- ingest: read, lex, encode + dedup --------------------------------
    let root = tr.begin("ingest", 0);
    let (text, read_s) = tr.time("rdf_io.read", 0, || std::fs::read_to_string(&nt));
    let text = text.map_err(|e| e.to_string())?;
    let mut g = Graph::new();
    let (mut lex_ns, mut insert_ns, mut lines, mut parsed) = (0u64, 0u64, 0u64, 0u64);
    let mut iter = text.lines().enumerate().peekable();
    while iter.peek().is_some() {
        let chunk = tr.begin("rdf_io.lines", 0);
        let chunk_start = tr.now_ns();
        let (mut c_lex, mut c_ins, mut c_calls, mut c_kept) = (0u64, 0u64, 0u64, 0u64);
        for (i, line) in iter.by_ref().take(CHUNK_LINES) {
            let a = Instant::now();
            let t = rdf_io::parse_line(line, i + 1).map_err(|e| e.to_string())?;
            let b = Instant::now();
            c_lex += (b - a).as_nanos() as u64;
            c_calls += 1;
            if let Some((s, p, o)) = t {
                g.insert(s, p, o).map_err(|e| e.to_string())?;
                c_ins += b.elapsed().as_nanos() as u64;
                c_kept += 1;
            }
        }
        let mid = tr.aggregate("rdf_io.lex", chunk_start, c_lex, c_calls);
        tr.aggregate("rdf_model.insert", mid, c_ins, c_kept);
        parsed += c_kept;
        tr.end(chunk);
        lex_ns += c_lex;
        insert_ns += c_ins;
        lines += c_calls;
    }
    drop(text);
    let ingest_s = tr.end(root);
    let untraced_s = (untraced_a + untraced_load(false)?.0) / 2.0;
    let covered: u64 = tr
        .spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let attributed = read_s + (lex_ns + insert_ns) as f64 / 1e9;
    let same_graph = rdf_store::snapshot::encode(&g).is_ok_and(|b| b[..] == ref_snapshot[..]);
    drop(ref_snapshot);
    checks.check(same_graph, || {
        "traced ingest built a different graph than rdf_io::load_path \
         (snapshot encodings differ)"
            .into()
    });
    let top_uncovered = 1.0 - covered as f64 / tr.duration(root) as f64;
    checks.check(top_uncovered < 0.01, || {
        format!(
            "top-level ingest spans leave {:.1}% of the total uncovered",
            top_uncovered * 100.0
        )
    });
    m.insert("rdf_io.read_s", read_s);
    m.insert("rdf_io.lex_s", lex_ns as f64 / 1e9);
    m.insert("rdf_io.lines", lines as f64);
    m.insert("rdf_model.insert_s", insert_ns as f64 / 1e9);
    m.insert("rdf_model.terms", g.dict().len() as f64);
    m.insert("rdf_model.kept_ratio", ratio(g.len() as f64, parsed as f64));
    m.insert("trace.overhead_ratio", (ingest_s - untraced_s) / untraced_s);
    m.insert("trace.uncovered_ratio", 1.0 - attributed / ingest_s);

    // ---- store: indexes + fingerprint, snapshot decode ------------------------
    let root = tr.begin("store", 0);
    let (mut store, index_s) = tr.time("rdf_store.index_build", 0, || {
        let store = if threads > 1 {
            TripleStore::with_threads(g, threads)
        } else {
            TripleStore::new(g)
        };
        store.fingerprint();
        store
    });
    let snap = dir.join("graph.snap");
    let (decoded, decode_s) = tr.time("rdf_store.snapshot_decode", 0, || {
        rdf_store::snapshot::load(&snap)
    });
    let decoded = decoded.map_err(|e| e.to_string())?;
    checks.check(decoded.len() == store.len(), || {
        "snapshot decodes to a different size".into()
    });
    drop(decoded);
    tr.end(root);
    m.insert("rdf_store.index_build_s", index_s);
    m.insert("rdf_store.snapshot_decode_s", decode_s);
    m.insert(
        "rdf_store.snapshot_bytes",
        std::fs::metadata(&snap).map_err(|e| e.to_string())?.len() as f64,
    );

    // ---- core: the artifacts a warm-up builds (W and TS) ----------------------
    let root = tr.begin("core", 0);
    let (mut card_s, mut write_s, mut sidx_s) = (0.0, 0.0, 0.0);
    let mut weak = None;
    for (kind, span, metric, reference) in [
        (
            SummaryKind::Weak,
            "core.build_w",
            "core.build_w_ms",
            "ref_w.nt",
        ),
        (
            SummaryKind::TypedStrong,
            "core.build_ts",
            "core.build_ts_ms",
            "ref_ts.nt",
        ),
    ] {
        let art = tr.begin("core.artifact", 0);
        let (summary, dt) = tr.time(span, 0, || build(store.graph(), kind, threads));
        m.insert(metric, dt * 1e3);
        let (card, dt) = tr.time("core.cardinality", 0, || {
            SummaryCardinality::new(&store, &summary)
        });
        card_s += dt;
        let (body, dt) = tr.time("rdf_io.write_graph", 0, || {
            rdf_io::write_graph(&summary.graph)
        });
        write_s += dt;
        let expected = std::fs::read(dir.join(reference)).map_err(|e| e.to_string())?;
        checks.check(body.as_bytes() == expected, || {
            format!("{kind} build differs from {reference}")
        });
        let (s_store, dt) = tr.time("rdf_store.summary_index", 0, || {
            TripleStore::new(summary.graph)
        });
        sidx_s += dt;
        if kind == SummaryKind::Weak {
            weak = Some((s_store, card));
        }
        tr.end(art);
    }
    tr.end(root);
    let (w_store, w_card) = weak.expect("the loop builds the weak summary");
    m.insert("core.cardinality_ms", card_s * 1e3);
    m.insert("rdf_io.write_graph_ms", write_s * 1e3);
    m.insert("rdf_store.summary_index_ms", sidx_s * 1e3);

    // ---- store batch writes + the weak delta ---------------------------------
    let updates = update_triples(&store, scale, seed);
    let root = tr.begin("updates", 0);
    let (mut delta, _) = tr.time("core.weak_delta_prime", 0, || {
        WeakDelta::from_graph(store.graph())
    });
    let (mut ins, mut del, mut apply) = (Vec::new(), Vec::new(), Vec::new());
    for (k, t) in updates.iter().enumerate() {
        let req = k as u64 + 1;
        let (out, dt) = tr.time("rdf_store.insert_batch", req, || {
            store.insert_batch(std::slice::from_ref(t))
        });
        let out = out.map_err(|e| e.to_string())?;
        ins.push(dt);
        let (_, dt) = tr.time("core.weak_delta_apply", req, || {
            delta.apply_inserts(store.graph(), &out.applied)
        });
        apply.push(dt);
    }
    for (k, t) in updates.iter().enumerate() {
        let (_, dt) = tr.time("rdf_store.delete_batch", k as u64 + 1, || {
            store.delete_batch(std::slice::from_ref(t))
        });
        del.push(dt);
    }
    tr.end(root);
    m.insert("rdf_store.insert_batch_ms", p50_ms(&ins));
    m.insert("rdf_store.delete_batch_ms", p50_ms(&del));
    m.insert("core.weak_delta_apply_us", p50_us(&apply));

    // ---- queries through the layers, un-memoized ---------------------------------
    let mut steps: Vec<Step> = Vec::new();
    for s in &scripts {
        steps.extend(read_script(s, "g")?);
    }
    let prefixes = PrefixMap::with_defaults();
    let root = tr.begin("queries", 0);
    let (mut parse, mut comp, mut prune, mut eval) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut n_queries, mut n_pruned, mut n_rows) = (0u64, 0u64, 0u64);
    for (i, step) in steps.iter().enumerate() {
        let Some(text) = step.request.strip_prefix("QUERY g ") else {
            continue;
        };
        // A writer query's answer depends on the writer's state, so it is
        // timed here but checked only in the service replay below.
        let stateless = step.class != "wquery";
        let req = i as u64 + 1;
        n_queries += 1;
        let q = tr.begin("rdf_query.query", req);
        let (spec, dt) = tr.time("rdf_query.parse", req, || parse_query(text, &prefixes));
        let spec = spec.map_err(|e| e.to_string())?;
        parse.push(dt);
        let (compiled, dt) = tr.time("rdf_query.compile", req, || compile(&spec, store.graph()));
        let compiled = compiled.map_err(|e| e.to_string())?;
        comp.push(dt);
        let (empty, dt) = tr.time("rdf_query.prune", req, || empty_on_summary(&w_store, &spec));
        prune.push(dt);
        if empty {
            n_pruned += 1;
            checks.check(
                !stateless || expect_field(&step.expect, "rows") == Some("0"),
                || format!("pruned a query with a non-empty answer: {text}"),
            );
        } else {
            let (order, _) = tr.time("rdf_query.plan", req, || {
                explain_with(&compiled, &SummaryEstimator::new(&store, &w_card)).order()
            });
            let (rs, dt) = tr.time("rdf_query.eval", req, || {
                Evaluator::new(&store).select_limit_ordered(&compiled, &order, QUERY_ROW_LIMIT + 1)
            });
            eval.push(dt);
            let n = rs.rows.len().min(QUERY_ROW_LIMIT);
            n_rows += n as u64;
            if !stateless {
            } else if let Some(h) = expect_field(&step.expect, "hash") {
                let mut rows: Vec<String> = rs
                    .decode(&store)
                    .into_iter()
                    .map(|r| {
                        r.iter()
                            .map(|t| t.to_string())
                            .collect::<Vec<_>>()
                            .join("\t")
                    })
                    .collect();
                let got = answer_hash(&spec.head.join("\t"), &mut rows);
                checks.check(format!("{got:x}") == h, || format!("wrong answer: {text}"));
            } else {
                checks.check(rs.rows.len() > QUERY_ROW_LIMIT, || {
                    format!("join not truncated: {text}")
                });
            }
        }
        tr.end(q);
    }
    tr.end(root);
    m.insert("rdf_query.parse_us", p50_us(&parse));
    m.insert("rdf_query.compile_us", p50_us(&comp));
    m.insert("rdf_query.prune_us", p50_us(&prune));
    m.insert("rdf_query.eval_ms", p50_ms(&eval));
    m.insert(
        "rdf_query.pruned_ratio",
        ratio(n_pruned as f64, n_queries as f64),
    );
    m.insert(
        "rdf_query.rows_per_query",
        ratio(n_rows as f64, n_queries as f64),
    );

    // ---- the summary service replaying the workload's script -----------------------
    let root = tr.begin("service", 0);
    let service = SummaryService::new(threads);
    tr.time("core.service_load", 0, || {
        service.load_graph("g", store.into_graph())
    });
    for kind in [SummaryKind::Weak, SummaryKind::TypedStrong] {
        tr.time("core.service_warm", 0, || {
            service.summarize("g", kind).map(|_| ())
        })
        .0
        .map_err(|e| e.to_string())?;
    }
    let builds_warm = service.stats().builds;
    let (mut sq, mut ss, mut su) = (Vec::new(), Vec::new(), Vec::new());
    for (i, step) in steps.iter().enumerate() {
        let req = 10_000 + i as u64;
        let words: Vec<&str> = step.request.splitn(3, ' ').collect();
        match words[0] {
            "QUERY" => {
                let (out, dt) = tr.time("core.service_query", req, || {
                    service.query("g", words[2], None, QUERY_ROW_LIMIT)
                });
                let out = out.map_err(|e| e.to_string())?;
                sq.push(dt);
                if let Some(h) = expect_field(&step.expect, "hash") {
                    let mut rows: Vec<String> = out.rows.iter().map(|r| r.join("\t")).collect();
                    let got = answer_hash(&out.columns.join("\t"), &mut rows);
                    checks.check(format!("{got:x}") == h && !out.truncated, || {
                        format!("service answer differs: {}", step.request)
                    });
                }
            }
            "SUMMARIZE" => {
                let kind = rdfsum_server::parse_kind(words[1]).ok_or("bad kind in script")?;
                let (out, dt) = tr.time("core.service_summarize", req, || {
                    service.summarize("g", kind)
                });
                let (artifact, _) = out.map_err(|e| e.to_string())?;
                ss.push(dt);
                if let Some(h) = expect_field(&step.expect, "body") {
                    let got = hash64(artifact.ntriples.as_bytes());
                    checks.check(format!("{got:x}") == h, || {
                        format!("service artifact differs: {}", step.request)
                    });
                }
            }
            "UPDATE" => {
                let rest = words[2];
                let (sign, payload) = rest.split_at(1);
                let triples = rdf_io::parse_statements(payload).map_err(|e| e.to_string())?;
                let (out, dt) = tr.time("core.service_update", req, || {
                    service.update("g", sign == "+", &triples)
                });
                let out = out.map_err(|e| e.to_string())?;
                su.push(dt);
                checks.check(
                    expect_field(&step.expect, "applied") == Some(&out.applied.to_string()),
                    || format!("update applied {}: {}", out.applied, step.request),
                );
            }
            _ => {}
        }
    }
    tr.end(root);
    let st = service.stats();
    m.insert("core.service_query_ms", p50_ms(&sq));
    m.insert("core.service_summarize_ms", p50_ms(&ss));
    m.insert("core.service_update_ms", p50_ms(&su));
    m.insert(
        "core.patched_ratio",
        ratio(st.patches as f64, (st.patches + st.patch_fallbacks) as f64),
    );
    m.insert(
        "core.builds_per_update",
        ratio((st.builds - builds_warm) as f64, st.updates as f64),
    );
    m.insert(
        "rdf_query.prune_memo_ratio",
        ratio(st.prune_hits as f64, st.queries as f64),
    );
    checks.check(st.builds == st.patch_fallbacks + st.misses, || {
        format!(
            "service invariant broken: builds={} patch_fallbacks={} misses={}",
            st.builds, st.patch_fallbacks, st.misses
        )
    });

    // ---- spans out, per-layer self-time table -------------------------------------
    tr.write_jsonl(&spans_out)?;
    let selfs = tr.self_times();
    let mut layers: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for (s, &st) in tr.spans.iter().zip(&selfs) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let e = layers.entry(layer).or_default();
        e.0 += st as f64 / 1e9;
        e.1 += s.calls;
    }
    let total = tr.now_ns() as f64 / 1e9;
    eprintln!(
        "per-layer self time ({workload}, {} spans, {total:.3}s traced):",
        tr.spans.len()
    );
    eprintln!(
        "  {:<10} {:>10} {:>7} {:>10}",
        "layer", "self_s", "share", "calls"
    );
    for (layer, (secs, calls)) in &layers {
        eprintln!(
            "  {layer:<10} {secs:>10.4} {:>6.1}% {calls:>10}",
            secs / total * 100.0
        );
    }
    eprintln!(
        "ingest: traced {ingest_s:.3}s vs untraced rdf_io::load_path {untraced_s:.3}s; \
         top-level spans leave {:.2}% uncovered, layer spans leave {:.2}% unattributed",
        top_uncovered * 100.0,
        (1.0 - attributed / ingest_s) * 100.0
    );

    let mut metrics = Json::obj();
    for (k, v) in &m {
        metrics.set(k, Json::Num(*v));
    }
    let mut out = Json::obj();
    out.set("metrics", metrics);
    out.set("attempted", Json::Num(checks.attempted as f64));
    out.set("failed", Json::Num(checks.failed as f64));
    out.set(
        "errors",
        Json::Arr(checks.errors.into_iter().map(Json::Str).collect()),
    );
    println!("{}", out.render());
    Ok(())
}
