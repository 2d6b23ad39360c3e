//! Seeded input generation: query text, the shuffled sweep order, the
//! Zipf request stream of `serve_zipf`, and the open-loop schedule.
//! The program under test only ever sees what these produce.

use datasets::{LubmDataset, NamedQuery, Rng};
use rdf_model::{QueryGraph, Term};

/// Render a query graph as the SPARQL text the CLI and the server
/// take. Every layer of the ledger works from this text (re-parsed),
/// so in-process, CLI and HTTP answers are comparable byte for byte.
pub fn sparql_of(query: &QueryGraph) -> String {
    let mut out = String::from("SELECT * WHERE {\n");
    for t in query.triples() {
        out.push_str("  ");
        for term in [&t.subject, &t.predicate, &t.object] {
            out.push_str(&sparql_term(term));
            out.push(' ');
        }
        out.push_str(".\n");
    }
    out.push_str("}\n");
    out
}

fn sparql_term(term: &Term) -> String {
    match term {
        Term::Variable(v) => format!("?{v}"),
        Term::Literal(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Term::Iri(s) => format!("<{s}>"),
        Term::Blank(s) => format!("_:{s}"),
    }
}

/// One query the sweep workloads run: a name, its SPARQL text, and
/// what the answer must look like.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// `Q1` … `Q12`, or a serve template label.
    pub name: String,
    /// The SPARQL text (the only form the program under test sees).
    pub sparql: String,
    /// No exact answer by construction: best score must be `> 0`.
    pub approximate: bool,
}

/// The paper's 12-query LUBM workload as text, optionally restricted
/// to `only` (by name).
pub fn lubm_queries(workload: &[NamedQuery], only: Option<&[&str]>) -> Vec<QuerySpec> {
    workload
        .iter()
        .filter(|nq| only.is_none_or(|names| names.contains(&nq.name)))
        .map(|nq| QuerySpec {
            name: nq.name.to_string(),
            sparql: sparql_of(&nq.query),
            approximate: nq.approximate,
        })
        .collect()
}

/// Sweep order: each sweep visits every type once, in an order drawn
/// from the seed, so no query always runs in another's cache shadow.
pub fn shuffled_sweep(rng: &mut Rng, types: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..types).collect();
    rng.shuffle(&mut order);
    order
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1/(r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the cumulative distribution (`n ≥ 1`).
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Skew of the serve request stream (TrQuery: real SPARQL logs are
/// this repetitive).
pub const ZIPF_S: f64 = 1.1;
/// Share of requests that are near-duplicates with one misspelt
/// predicate (answered approximately).
pub const NEAR_DUPLICATE_SHARE: f64 = 0.10;
/// Length of the pre-drawn request stream; phases cycle through it.
pub const STREAM_LEN: usize = 1 << 16;

/// The three point-chain templates: `(predicate, misspelt predicate,
/// attribute)`, over professors, professors, courses.
const TEMPLATES: [(&str, &str, &str); 3] = [
    ("advisor", "adviser", "emailAddress"),
    ("publicationAuthor", "publicationAuthour", "name"),
    ("takesCourse", "takeCourse", "name"),
];

/// The literal the generator attached to `iri` under `attribute`
/// (mirrors `datasets::lubm::generate`): `Professor0_1_2` has name
/// `Prof 0-1-2` and email `prof0.1.2@univ0.edu`; `Course0_1_2` has
/// name `Course 0-1-2`.
fn literal_of(iri: &str, attribute: &str) -> String {
    let digits = iri.trim_start_matches(|c: char| c.is_ascii_alphabetic());
    let parts: Vec<&str> = digits.split('_').collect();
    match (iri.starts_with("Professor"), attribute) {
        (true, "emailAddress") => format!("prof{}@univ{}.edu", parts.join("."), parts[0]),
        (true, _) => format!("Prof {}", parts.join("-")),
        (false, _) => format!("Course {}", parts.join("-")),
    }
}

/// The pre-drawn `serve_zipf` traffic: the distinct requests and the
/// order they are sent in.
pub struct RequestStream {
    /// Distinct requests.
    pub distinct: Vec<QuerySpec>,
    /// Indices into `distinct`, [`STREAM_LEN`] long.
    pub order: Vec<u32>,
}

/// Draw the request stream: template uniform, constant Zipf over
/// professors or courses (rank→entity mapping shuffled by the seed, so
/// the hot entities are not the first-generated ones), one request in
/// ten misspelt.
pub fn request_stream(ds: &LubmDataset, rng: &mut Rng) -> RequestStream {
    // The advisor template is exactly answerable only for professors
    // somebody chose as advisor (the generator draws advisors at
    // random, so a few have no advisee).
    let advisors: std::collections::HashSet<String> = ds
        .graph
        .triples()
        .filter(|t| t.predicate.lexical() == "advisor")
        .map(|t| t.object.lexical().to_string())
        .collect();
    let mut professors: Vec<&String> = ds.professors.iter().collect();
    let mut courses: Vec<&String> = ds.courses.iter().collect();
    rng.shuffle(&mut professors);
    rng.shuffle(&mut courses);
    let advising: Vec<&String> = professors
        .iter()
        .copied()
        .filter(|p| advisors.contains(p.as_str()))
        .collect();
    let zipf_advising = Zipf::new(advising.len(), ZIPF_S);
    let zipf_prof = Zipf::new(professors.len(), ZIPF_S);
    let zipf_course = Zipf::new(courses.len(), ZIPF_S);

    let mut ids = std::collections::HashMap::new();
    let mut distinct = Vec::new();
    let mut order = Vec::with_capacity(STREAM_LEN);
    for _ in 0..STREAM_LEN {
        let template = rng.below(TEMPLATES.len());
        let (predicate, misspelt, attribute) = TEMPLATES[template];
        let entity = match template {
            0 => advising[zipf_advising.sample(rng)],
            1 => professors[zipf_prof.sample(rng)],
            _ => courses[zipf_course.sample(rng)],
        };
        let approximate = rng.chance(NEAR_DUPLICATE_SHARE);
        let id = *ids
            .entry((template, entity.as_str(), approximate))
            .or_insert_with(|| {
                let predicate = if approximate { misspelt } else { predicate };
                distinct.push(QuerySpec {
                    name: format!("{predicate}:{entity}"),
                    sparql: format!(
                        "SELECT * WHERE {{ ?s <{predicate}> ?x . ?x <{attribute}> \"{}\" . }}\n",
                        literal_of(entity, attribute)
                    ),
                    approximate,
                });
                (distinct.len() - 1) as u32
            });
        order.push(id);
    }
    RequestStream { distinct, order }
}

/// What an open-loop phase observed for one request, all on one clock.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSample {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When it was actually written to the socket.
    pub sent_ns: u64,
    /// When its response was complete.
    pub done_ns: u64,
}

impl OpenLoopSample {
    /// Latency a user on the schedule saw: from the *due* time, so a
    /// stall charges every request it delayed (choosing-metrics §5).
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator ran for this request.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Due time of request `i` at `rate` requests per second.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::lubm::{generate, LubmConfig};

    #[test]
    fn zipf_is_reproducible_and_skewed() {
        let z = Zipf::new(1000, ZIPF_S);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let sample = draw(7);
        assert!(sample.iter().all(|&r| r < 1000));
        let top10 = sample.iter().filter(|&&r| r < 10).count();
        let bottom500 = sample.iter().filter(|&&r| r >= 500).count();
        assert!(top10 > 2000, "head of the distribution is hot: {top10}");
        assert!(bottom500 < top10 / 4, "tail is cold: {bottom500}");
        assert_eq!(Zipf::new(1, ZIPF_S).sample(&mut Rng::new(1)), 0);
    }

    #[test]
    fn sweep_order_is_a_seeded_permutation() {
        let a = shuffled_sweep(&mut Rng::new(3), 12);
        assert_eq!(a, shuffled_sweep(&mut Rng::new(3), 12));
        assert_ne!(a, shuffled_sweep(&mut Rng::new(4), 12));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn request_stream_hits_literals_the_generator_wrote() {
        let ds = generate(&LubmConfig::sized_for(2_000, 42));
        let stream = request_stream(&ds, &mut Rng::new(42));
        assert_eq!(stream.order.len(), STREAM_LEN);
        let approx = stream
            .order
            .iter()
            .filter(|&&i| stream.distinct[i as usize].approximate)
            .count() as f64
            / STREAM_LEN as f64;
        assert!(
            (0.08..0.12).contains(&approx),
            "near-duplicate share {approx}"
        );
        for spec in &stream.distinct {
            let parsed = rdf_model::parse_sparql(&spec.sparql).expect("template parses");
            let literal = parsed
                .patterns
                .iter()
                .find_map(|t| match &t.object {
                    Term::Literal(s) => Some(s.clone()),
                    _ => None,
                })
                .expect("literal sink");
            assert!(
                ds.graph.vocab().get_constant(&literal).is_some(),
                "{literal} is not in the data"
            );
        }
        let again = request_stream(&ds, &mut Rng::new(42));
        assert_eq!(stream.order, again.order);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        assert_eq!(due_ns(0, 8000.0), 0);
        assert_eq!(due_ns(8000, 8000.0), 1_000_000_000);
        // A stalled request: due at 1 ms, sent 4 ms late, 0.1 ms service.
        let late = OpenLoopSample {
            due_ns: 1_000_000,
            sent_ns: 5_000_000,
            done_ns: 5_100_000,
        };
        assert_eq!(late.lag_ns(), 4_000_000);
        assert_eq!(late.latency_ns(), 4_100_000, "the wait is charged to it");
        // An on-time one: latency is service time, lag is zero even if
        // the clock read lands a hair before the due time.
        let on_time = OpenLoopSample {
            due_ns: 2_000_000,
            sent_ns: 1_999_990,
            done_ns: 2_030_000,
        };
        assert_eq!(on_time.lag_ns(), 0);
        assert_eq!(on_time.latency_ns(), 30_000);
    }

    #[test]
    fn query_text_round_trips_through_the_parser() {
        let ds = generate(&LubmConfig::sized_for(2_000, 42));
        let specs = lubm_queries(&datasets::lubm_workload(&ds), None);
        assert_eq!(specs.len(), 12);
        for spec in &specs {
            let parsed = rdf_model::parse_sparql(&spec.sparql).expect("parses");
            assert_eq!(sparql_of(&parsed.graph), spec.sparql, "{}", spec.name);
        }
        let deep = lubm_queries(&datasets::lubm_workload(&ds), Some(&["Q3", "Q12"]));
        assert_eq!(deep.len(), 2);
    }
}
