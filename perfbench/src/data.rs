//! `prep`: seeded inputs and their reference answers, generated outside
//! any timed phase and cached per (scale, seed) directory.
//!
//! Parts (each skipped when its marker file already exists):
//!
//! * `base`  — `graph.nt` (BSBM at `--scale` products, `--seed`),
//!   `graph.snap` (snapshot of the parsed file), `ref_w.nt` / `ref_ts.nt`
//!   (the in-process `SummaryService` artifacts of the parsed graph) and
//!   `meta.txt`;
//! * `read`  — `read_0.txt`, `read_1.txt`: one request script per
//!   closed-loop read connection, and `updates.txt` (two update cycles
//!   the traced run appends, so every layer is measured);
//! * `write` — `write_pre.txt` + `write_loop.txt` (the writer's script:
//!   the first cycle round, then the round repeated until time is up);
//! * both `read` and `write` also write `probe.txt`, the open-loop
//!   probe's request.
//!
//! A script line is `<class>\t<expect>\t<request>`, with `@G` standing
//! for the graph name. `<expect>` is `rows=<n>,hash=<h>` (an untruncated
//! QUERY answer, set-hashed), `trunc=<n>` (a QUERY that must stop at the
//! server's row limit), `body=<h>` (a SUMMARIZE body) or `applied=<n>`
//! (an UPDATE). Every expectation comes from an in-process computation:
//! un-pruned `Evaluator` answers and `SummaryService` artifacts.

use crate::util::{answer_hash, flag, hash64, need, write_atomic};
use rdf_model::{Graph, PrefixMap, SplitMix64, Term};
use rdf_query::{compile, parse_query, Evaluator};
use rdf_store::TripleStore;
use rdfsum_core::{SummaryKind, SummaryService};
use rdfsum_server::QUERY_ROW_LIMIT;
use rdfsum_workloads::{generate_bsbm, BsbmConfig};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const VOC: &str = "http://bsbm.example.org/vocabulary/";
const INST: &str = "http://bsbm.example.org/instances/";
const LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
const REVIEWER: &str = "http://purl.org/stuff/rev#reviewer";

/// Requests per read-connection script (the script repeats when a run
/// outlasts it); a whole number of mix periods.
const READ_SCRIPT_LEN: usize = 240;
/// One period of the read mix: 40% provably-empty, 30% star, 10% join,
/// 10% SUMMARIZE w, 10% SUMMARIZE ts. The weights are an assumption (see
/// perfbench/README.md); the benchmark times a whole period as one read
/// operation, so every class weighs in the gated figure.
const MIX: [&str; 10] = [
    "empty", "empty", "empty", "empty", "star", "star", "star", "join", "sum_w", "sum_ts",
];
/// Distinct update triples the writer cycles through.
const WRITE_CYCLE: usize = 8;

/// Worker count the program uses by default (`RDFSUM_THREADS`, else all
/// cores) — the reference service must take the same build decisions.
pub fn default_threads() -> usize {
    std::env::var("RDFSUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The BSBM population sizes the generator uses for `products`.
struct Population {
    products: usize,
    producers: usize,
    features: usize,
    persons: usize,
}

impl Population {
    fn of(products: usize) -> Population {
        let cfg = BsbmConfig::with_products(products);
        let reviews = products * cfg.reviews_per_product;
        Population {
            products,
            producers: products / 35 + 1,
            features: products / 4 + 20,
            persons: reviews / 20 + 1,
        }
    }
}

fn inst(kind: &str, i: usize) -> String {
    format!("<{INST}{kind}{i}>")
}

fn voc(local: &str) -> String {
    format!("<{VOC}{local}>")
}

/// Evaluates `query` on `store` without summary pruning and without a
/// summary-derived plan, and renders the expectation a served answer
/// must meet.
fn expect_query(store: &TripleStore, query: &str) -> Result<String, String> {
    let spec = parse_query(query, &PrefixMap::with_defaults()).map_err(|e| e.to_string())?;
    let q = compile(&spec, store.graph()).map_err(|e| e.to_string())?;
    let rs = Evaluator::new(store).select_limit(&q, QUERY_ROW_LIMIT + 1);
    if rs.rows.len() > QUERY_ROW_LIMIT {
        return Ok(format!("trunc={QUERY_ROW_LIMIT}"));
    }
    let mut rows: Vec<String> = rs
        .decode(store)
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    let n = rows.len();
    let h = answer_hash(&spec.head.join("\t"), &mut rows);
    Ok(format!("rows={n},hash={h:x}"))
}

/// The reference summary service, configured like `rdfsummary serve`.
fn service_with(name: &str, g: Graph) -> SummaryService {
    let service = SummaryService::new(default_threads());
    service.load_graph(name, g);
    service
}

fn artifact_body(service: &SummaryService, name: &str, kind: SummaryKind) -> Vec<u8> {
    let (artifact, _) = service.summarize(name, kind).expect("graph is loaded");
    artifact.ntriples.as_bytes().to_vec()
}

pub fn prep(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag(args, "--dir").ok_or("missing --dir")?);
    let scale: usize = need(args, "--scale")?;
    let seed: u64 = need(args, "--seed")?;
    let parts = flag(args, "--parts").unwrap_or_else(|| "base".into());
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    if !dir.join("base.done").exists() {
        prep_base(&dir, scale, seed)?;
    }
    let mut graph: Option<Graph> = None;
    for part in parts.split(',') {
        let marker = dir.join(format!("{part}.done"));
        if part == "base" || marker.exists() {
            continue;
        }
        let g = match graph.take() {
            Some(g) => g,
            None => rdfsum_server::load_graph_file(&dir.join("graph.snap").to_string_lossy())?,
        };
        let store = TripleStore::new(g);
        match part {
            "read" => prep_read(&dir, &store, scale, seed)?,
            "write" => prep_write(&dir, &store, scale, seed)?,
            other => return Err(format!("unknown prep part `{other}`")),
        }
        graph = Some(store.into_graph());
        write_atomic(&marker, b"")?;
    }
    Ok(())
}

fn prep_base(dir: &Path, scale: usize, seed: u64) -> Result<(), String> {
    let cfg = BsbmConfig {
        seed,
        ..BsbmConfig::with_products(scale)
    };
    let nt = dir.join("graph.nt");
    {
        let generated = generate_bsbm(&cfg);
        write_atomic(&nt, rdf_io::write_graph(&generated).as_bytes())?;
    }
    // The reference is the *parsed* file: the graph every program path
    // reads, in file order.
    let g = rdf_io::load_path(&nt).map_err(|e| format!("parsing {}: {e}", nt.display()))?;
    let snap = dir.join("graph.snap");
    let bytes = rdf_store::snapshot::encode(&g).map_err(|e| e.to_string())?;
    write_atomic(&snap, &bytes)?;
    let (triples, terms) = (g.len(), g.dict().len());
    let service = service_with("g", g);
    write_atomic(
        &dir.join("ref_w.nt"),
        &artifact_body(&service, "g", SummaryKind::Weak),
    )?;
    write_atomic(
        &dir.join("ref_ts.nt"),
        &artifact_body(&service, "g", SummaryKind::TypedStrong),
    )?;
    let nt_bytes = std::fs::metadata(&nt).map_err(|e| e.to_string())?.len();
    let meta = format!(
        "products={scale}\nseed={seed}\ntriples={triples}\nterms={terms}\nnt_bytes={nt_bytes}\nsnap_bytes={}\n",
        bytes.len()
    );
    write_atomic(&dir.join("meta.txt"), meta.as_bytes())?;
    write_atomic(&dir.join("base.done"), b"")
}

/// The read mix, one script per connection: provably-empty queries
/// (answered by pruning), selective star queries with seeded constants,
/// 2-pattern joins that hit the row limit, and cached SUMMARIZE w / ts.
fn prep_read(dir: &Path, store: &TripleStore, scale: usize, seed: u64) -> Result<(), String> {
    let pop = Population::of(scale);
    let ref_w = std::fs::read(dir.join("ref_w.nt")).map_err(|e| e.to_string())?;
    let ref_ts = std::fs::read(dir.join("ref_ts.nt")).map_err(|e| e.to_string())?;
    let mut memo: HashMap<String, String> = HashMap::new();
    for conn in 0..2u64 {
        let mut rng = SplitMix64::new(seed ^ (0x5EED_0000 + conn));
        // Every period of MIX.len() requests holds the mix exactly; the
        // seed picks the order within each period and the constants. A
        // drawn mix would move throughput by the luck of how many joins a
        // seed got.
        let mut slots: Vec<usize> = (0..READ_SCRIPT_LEN).map(|i| i % MIX.len()).collect();
        for period in slots.chunks_mut(MIX.len()) {
            for i in (1..period.len()).rev() {
                period.swap(i, rng.index(i + 1));
            }
        }
        let (mut n_empty, mut n_join) = (0, 0);
        let mut script = String::new();
        for slot in slots {
            let (class, request) = match MIX[slot] {
                "empty" => {
                    n_empty += 1;
                    ("empty", empty_query(n_empty, &mut rng, &pop))
                }
                "star" => {
                    let j = rng.index(pop.producers);
                    let q = format!(
                        "q(?x, ?l, ?f) :- ?x {} {}, ?x <{LABEL}> ?l, ?x {} ?f",
                        voc("producer"),
                        inst("Producer", j),
                        voc("productFeature")
                    );
                    ("star", q)
                }
                "join" => {
                    n_join += 1;
                    ("join", join_query(n_join))
                }
                "sum_w" => {
                    writeln!(script, "sum_w\tbody={:x}\tSUMMARIZE w @G", hash64(&ref_w))
                        .expect("writing to a String cannot fail");
                    continue;
                }
                _ => {
                    writeln!(
                        script,
                        "sum_ts\tbody={:x}\tSUMMARIZE ts @G",
                        hash64(&ref_ts)
                    )
                    .expect("writing to a String cannot fail");
                    continue;
                }
            };
            let expect = match memo.get(&request) {
                Some(e) => e.clone(),
                None => {
                    let e = expect_query(store, &request)?;
                    memo.insert(request.clone(), e.clone());
                    e
                }
            };
            writeln!(script, "{class}\t{expect}\tQUERY @G {request}")
                .expect("writing to a String cannot fail");
        }
        write_atomic(&dir.join(format!("read_{conn}.txt")), script.as_bytes())?;
    }
    // Two update cycles, run once after the traced read traffic so the
    // update-path layer figures exist on this workload too.
    let mut mirror = TripleStore::new(store.graph().clone());
    let mut script = String::new();
    for t in update_triples(store, scale, seed).iter().take(2) {
        for (class, sign) in [("update_add", '+'), ("update_del", '-')] {
            if sign == '+' {
                mirror
                    .insert_batch(std::slice::from_ref(t))
                    .map_err(|e| e.to_string())?;
            } else {
                mirror.delete_batch(std::slice::from_ref(t));
            }
            let q = writer_query(t);
            writeln!(
                script,
                "{class}\tapplied=1\tUPDATE @G {sign} {}",
                statement(t)
            )
            .expect("writing to a String cannot fail");
            writeln!(
                script,
                "wquery\t{}\tQUERY @G {q}",
                expect_query(&mirror, &q)?
            )
            .expect("writing to a String cannot fail");
        }
    }
    write_atomic(&dir.join("updates.txt"), script.as_bytes())?;
    write_probe(dir, store, scale, seed)
}

/// The `n`-th query of a family whose answers are empty on every BSBM
/// graph and that a summary can prove empty: each joins properties that
/// never share a subject. Constants are seeded.
fn empty_query(n: usize, rng: &mut SplitMix64, pop: &Population) -> String {
    match n % 3 {
        0 => format!(
            "q(?x) :- ?x {} {}, ?x {} ?r",
            voc("producer"),
            inst("Producer", rng.index(pop.producers)),
            voc("reviewFor")
        ),
        1 => format!(
            "q(?o, ?p) :- ?o {} ?p, ?o {} ?x",
            voc("price"),
            voc("reviewFor")
        ),
        _ => format!(
            "q(?x) :- ?x <{REVIEWER}> {}, ?x {} ?v",
            inst("Person", rng.index(pop.persons)),
            voc("vendor")
        ),
    }
}

/// The `n`-th of three 2-pattern joins with far more answers than the
/// server's row limit.
fn join_query(n: usize) -> String {
    let link = ["reviewFor", "product", "productFeature"][n % 3];
    format!("q(?x, ?t) :- ?x {} ?y, ?y <{LABEL}> ?t", voc(link))
}

/// The writer's seeded update triples: alternately a fresh literal
/// property value and a new product-feature link on a random product,
/// none of them present in the graph.
pub fn update_triples(store: &TripleStore, scale: usize, seed: u64) -> Vec<(Term, Term, Term)> {
    let pop = Population::of(scale);
    let mut rng = SplitMix64::new(seed ^ 0xD17A_0000);
    let mut out: Vec<(Term, Term, Term)> = Vec::new();
    while out.len() < WRITE_CYCLE {
        let k = out.len();
        let s = Term::iri(format!("{INST}Product{}", rng.index(pop.products)));
        let (p, o) = if k.is_multiple_of(2) {
            (
                Term::iri(format!("{VOC}productPropertyTextual1")),
                Term::literal(format!("perfbench update {seed} {k}")),
            )
        } else {
            (
                Term::iri(format!("{VOC}productFeature")),
                Term::iri(format!("{INST}ProductFeature{}", rng.index(pop.features))),
            )
        };
        let d = store.graph().dict();
        let present = match (d.lookup(&s), d.lookup(&p), d.lookup(&o)) {
            (Some(s), Some(p), Some(o)) => store.contains(rdf_model::Triple::new(s, p, o)),
            _ => false,
        };
        if !present && !out.iter().any(|t| t.0 == s && t.1 == p && t.2 == o) {
            out.push((s, p, o));
        }
    }
    out
}

/// One N-Triples statement for an `UPDATE` line.
fn statement(t: &(Term, Term, Term)) -> String {
    format!(
        "{} {} {} .",
        rdf_io::write_term(&t.0),
        rdf_io::write_term(&t.1),
        rdf_io::write_term(&t.2)
    )
}

/// The writer's selective query: everything known about the updated
/// product, so each answer shows whether the update is visible.
fn writer_query(t: &(Term, Term, Term)) -> String {
    format!("q(?p, ?o) :- {} ?p ?o", rdf_io::write_term(&t.0))
}

/// The writer's script, with every expectation taken from an in-process
/// replay: a `SummaryService` (same thread count as `serve`) applies the
/// same updates in the same order, and a mirrored store answers the
/// queries un-pruned. Two rounds are replayed; the server runs round 0
/// once and then repeats round 1.
fn prep_write(dir: &Path, store: &TripleStore, scale: usize, seed: u64) -> Result<(), String> {
    let updates = update_triples(store, scale, seed);
    let service = service_with("g", store.graph().clone());
    let mut mirror = TripleStore::new(store.graph().clone());
    for kind in [SummaryKind::Weak, SummaryKind::TypedStrong] {
        service.summarize("g", kind).map_err(|e| e.to_string())?;
    }
    for round in 0..2 {
        let mut script = String::new();
        for (k, t) in updates.iter().enumerate() {
            for (phase, insert) in [(0usize, true), (1, false)] {
                let out = service
                    .update("g", insert, std::slice::from_ref(t))
                    .map_err(|e| e.to_string())?;
                if insert {
                    mirror
                        .insert_batch(std::slice::from_ref(t))
                        .map_err(|e| e.to_string())?;
                } else {
                    mirror.delete_batch(std::slice::from_ref(t));
                }
                let (class, sign) = if insert {
                    ("update_add", '+')
                } else {
                    ("update_del", '-')
                };
                writeln!(
                    script,
                    "{class}\tapplied={}\tUPDATE @G {sign} {}",
                    out.applied,
                    statement(t)
                )
                .expect("writing to a String cannot fail");
                let (kind, token, cls) = if (k + phase) % 2 == 0 {
                    (SummaryKind::Weak, "w", "sum_w")
                } else {
                    (SummaryKind::TypedStrong, "ts", "sum_ts")
                };
                let body = artifact_body(&service, "g", kind);
                writeln!(
                    script,
                    "{cls}\tbody={:x}\tSUMMARIZE {token} @G",
                    hash64(&body)
                )
                .expect("writing to a String cannot fail");
                let q = writer_query(t);
                writeln!(
                    script,
                    "wquery\t{}\tQUERY @G {q}",
                    expect_query(&mirror, &q)?
                )
                .expect("writing to a String cannot fail");
            }
        }
        let name = if round == 0 {
            "write_pre.txt"
        } else {
            "write_loop.txt"
        };
        write_atomic(&dir.join(name), script.as_bytes())?;
    }
    write_probe(dir, store, scale, seed)
}

/// The open-loop probe's request: a provably-empty query.
fn write_probe(dir: &Path, store: &TripleStore, scale: usize, seed: u64) -> Result<(), String> {
    let pop = Population::of(scale);
    let mut rng = SplitMix64::new(seed ^ 0x9A0B_E000);
    let probe = format!(
        "q(?x) :- ?x {} {}, ?x {} ?r",
        voc("producer"),
        inst("Producer", rng.index(pop.producers)),
        voc("reviewFor")
    );
    let line = format!(
        "probe\t{}\tQUERY @G {probe}\n",
        expect_query(store, &probe)?
    );
    write_atomic(&dir.join("probe.txt"), line.as_bytes())
}
