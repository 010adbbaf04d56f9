//! Full-pipeline integration tests: generate → serialize → parse → store →
//! saturate → summarize → query, across crates.

use rdfsummary::prelude::*;
use rdfsummary::rdf_query::{sample_rbgp_queries, WorkloadConfig};
use rdfsummary::rdfsum_workloads as workloads;

#[test]
fn bsbm_roundtrip_and_summaries() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(60));
    // Serialize + reparse: identical triple count and identical summaries.
    let text = write_graph(&g);
    let g2 = parse_graph(&text).unwrap();
    assert_eq!(g.len(), g2.len());
    for kind in [SummaryKind::Weak, SummaryKind::Strong] {
        let a = summarize(&g, kind);
        let b = summarize(&g2, kind);
        assert!(
            rdfsummary::rdfsum_core::summary_isomorphic(&a.graph, &b.graph),
            "{kind} differs after round trip"
        );
    }
}

#[test]
fn lubm_saturate_then_query() {
    let g = workloads::generate_lubm(&LubmConfig::with_universities(1));
    let sat = saturate(&g);
    let store = TripleStore::new(sat);
    // Every professor worksFor ⇒ is an Employee (via Faculty) in G∞.
    let q = parse_query(
        &format!(
            "q(?x) :- ?x a <{0}Employee>, ?x <{0}worksFor> ?d",
            workloads::lubm::UNIV_NS
        ),
        &PrefixMap::with_defaults(),
    )
    .unwrap();
    let cq = compile(&q, store.graph()).unwrap();
    let rs = Evaluator::new(&store).select(&cq);
    assert!(rs.len() > 5, "expected many employees, got {}", rs.len());
}

#[test]
fn summaries_much_smaller_than_input() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(150));
    for s in summarize_all(&g) {
        let ratio = s.compression_ratio(g.len());
        assert!(ratio < 0.05, "{} summary too large: ratio {ratio}", s.kind);
        // Every data node of G is represented.
        assert_eq!(s.n_represented(), g.data_nodes().len());
    }
}

#[test]
fn store_scans_match_graph_contents() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(25));
    let store = TripleStore::new(g.clone());
    assert_eq!(store.len(), g.len());
    for t in g.iter().take(200) {
        assert!(store.contains(t));
        assert!(store.any(TriplePattern::new(Some(t.s), None, None)));
        assert!(store.any(TriplePattern::new(None, Some(t.p), Some(t.o))));
    }
}

#[test]
fn sampled_queries_answerable_end_to_end() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(40));
    let store = TripleStore::new(g.clone());
    let queries = sample_rbgp_queries(
        &store,
        &WorkloadConfig {
            queries: 25,
            patterns_per_query: 3,
            seed: 0xE2E,
            ..Default::default()
        },
    );
    assert_eq!(queries.len(), 25);
    let ev = Evaluator::new(&store);
    for q in &queries {
        let cq = compile(q, store.graph()).unwrap();
        assert!(ev.ask(&cq), "sampled query empty: {q}");
        // And its textual form parses back to the same query.
        let reparsed = parse_query(&q.to_string(), &PrefixMap::with_defaults()).unwrap();
        assert_eq!(&reparsed, q);
    }
}

#[test]
fn dot_export_all_summaries() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(10));
    for s in summarize_all(&g) {
        let dot = to_dot(&s.graph, &DotOptions::default());
        assert!(dot.starts_with("digraph"));
        assert!(dot.ends_with("}\n"));
    }
}

#[test]
fn file_io_roundtrip() {
    let dir = std::env::temp_dir().join("rdfsummary_test_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sample.nt");
    let g = rdfsummary::rdfsum_core::fixtures::sample_graph();
    save_path(&g, &path).unwrap();
    let g2 = load_path(&path).unwrap();
    assert_eq!(g.len(), g2.len());
    std::fs::remove_file(&path).ok();
}

/// Escapes the first alphanumeric character inside the first IRI and the
/// first literal of a line as `\uXXXX`: a different spelling of the same
/// terms.
fn respell(line: &str) -> String {
    let mut out = String::with_capacity(line.len() + 12);
    let (mut iri_done, mut lit_done, mut open) = (false, false, None);
    for c in line.chars() {
        match (open, c) {
            (None, '<') if !iri_done => open = Some('>'),
            (None, '"') if !lit_done => open = Some('"'),
            (Some(close), _) if c == close => open = None,
            (Some(close), c) if c.is_ascii_alphanumeric() => {
                out.push_str(&format!("\\u{:04X}", c as u32));
                if close == '>' {
                    iri_done = true;
                } else {
                    lit_done = true;
                }
                open = None;
                continue;
            }
            _ => {}
        }
        out.push(c);
    }
    out
}

/// The three N-Triples ingest paths — a `parse_line` + `Graph::insert`
/// loop, `parse_graph`, and the streaming `load_path` — build the same
/// graph, down to dictionary ids (equal snapshot bytes), on a BSBM graph
/// whose text mixes escaped and plain spellings of the same terms.
#[test]
fn ingest_paths_build_identical_graphs() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(40));
    let mut text = String::new();
    for (i, line) in write_graph(&g).lines().enumerate() {
        let line = if i % 3 == 0 {
            respell(line)
        } else {
            line.to_owned()
        };
        text.push_str(&line);
        text.push_str(if i % 5 == 0 { "\r\n" } else { "\n" });
    }
    text.push_str("# escapes that need no respelling\n");
    text.push_str("_:b1 <http://x/p> \"tab\\tquote\\\" caf\\u00E9 \\U0001F600\"@en-GB .\n");
    text.push_str("_:b1 <http://x/p> \"tab\tquote\\\" café 😀\"@en-GB .\n");
    text.push_str("<http://x/\\u00E9> <http://x/p> \"1\"^^<http://x/\\u0064t> .");
    assert!(text.matches("\\u").count() > 100);

    let mut looped = Graph::new();
    for (i, line) in text.lines().enumerate() {
        if let Some((s, p, o)) = rdfsummary::rdf_io::parse_line(line, i + 1).unwrap() {
            looped.insert(s, p, o).unwrap();
        }
    }
    let parsed = parse_graph(&text).unwrap();
    let path = std::env::temp_dir().join(format!("rdfsummary_ingest_{}.nt", std::process::id()));
    std::fs::write(&path, &text).unwrap();
    let loaded = load_path(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(looped.len(), g.len() + 2);
    let encode = |g: &Graph| rdfsummary::rdf_store::snapshot::encode(g).unwrap().to_vec();
    let reference = encode(&looped);
    assert!(encode(&parsed) == reference, "parse_graph differs");
    assert!(encode(&loaded) == reference, "load_path differs");
}
