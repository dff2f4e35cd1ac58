//! **P1 — primitive throughput** (§2.1 feature 1.2): microbenchmarks of
//! the utility-library building blocks every LF calls in its inner loop,
//! plus the blocking primitives.
//!
//! Run: `cargo bench -p panda-bench --bench p1_primitives`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use panda_embed::{HyperplaneLsh, TupleEmbedder};
use panda_lf::{Label, PackedVotes};
use panda_regex::Regex;
use panda_text::preprocess::{apply_pipeline, standard_pipeline};
use panda_text::{sim, stem, tokenize::Tokenizer};
use std::hint::black_box;

const NAME_A: &str = "Sony Bravia KDL-40V2500 40' LCD Flat-Panel HDTV, Black";
const NAME_B: &str = "sony bravia kdl 40v2500 40in lcd hdtv (black)";
/// Two ~75-char descriptions (two table words each) for the string
/// kernels: the length of the abt-buy `description` values the auto-LF
/// grid scores.
const DESC_A: &str =
    "1080p flat panel lcd hdtv with hdmi and usb inputs, energy star, black finish";
const DESC_B: &str = "1080p flat-panel lcd hdtv w/ hdmi, usb inputs; energy star certified black";
const DESC: &str = "High-definition 1080p flat panel television with HDMI, USB, \
                    energy star certification and wall mountable widescreen design";

fn bench_text(c: &mut Criterion) {
    let mut g = c.benchmark_group("text");
    g.throughput(Throughput::Elements(1));

    g.bench_function("preprocess/standard_pipeline", |b| {
        let p = standard_pipeline();
        b.iter(|| black_box(apply_pipeline(&p, black_box(NAME_A))));
    });
    g.bench_function("stem/porter", |b| {
        b.iter(|| black_box(stem::porter_stem(black_box("generalizations"))));
    });
    g.bench_function("tokenize/whitespace", |b| {
        b.iter(|| black_box(Tokenizer::Whitespace.tokens(black_box(DESC))));
    });
    g.bench_function("tokenize/qgram3", |b| {
        b.iter(|| black_box(Tokenizer::QGram(3).tokens(black_box(NAME_A))));
    });

    let ta = Tokenizer::Whitespace.tokens(NAME_A);
    let tb = Tokenizer::Whitespace.tokens(NAME_B);
    g.bench_function("sim/jaccard", |b| {
        b.iter(|| black_box(sim::jaccard(black_box(&ta), black_box(&tb))));
    });
    let ha = sim::sorted_token_hashes(&ta);
    let hb = sim::sorted_token_hashes(&tb);
    g.bench_function("sim/jaccard_sorted_prehashed", |b| {
        b.iter(|| black_box(sim::jaccard_sorted(black_box(&ha), black_box(&hb))));
    });
    g.bench_function("sim/sorted_token_hashes", |b| {
        b.iter(|| black_box(sim::sorted_token_hashes(black_box(&ta))));
    });
    g.bench_function("sim/levenshtein", |b| {
        b.iter(|| black_box(sim::levenshtein(black_box(NAME_A), black_box(NAME_B))));
    });
    g.bench_function("sim/levenshtein_desc75", |b| {
        b.iter(|| black_box(sim::levenshtein(black_box(DESC_A), black_box(DESC_B))));
    });
    g.bench_function("sim/jaro_winkler", |b| {
        b.iter(|| black_box(sim::jaro_winkler(black_box(NAME_A), black_box(NAME_B))));
    });
    g.bench_function("sim/monge_elkan_jw", |b| {
        b.iter(|| black_box(sim::monge_elkan_sym(&ta, &tb, sim::jaro_winkler)));
    });
    g.bench_function("sim/jaro_winkler_desc75", |b| {
        b.iter(|| black_box(sim::jaro_winkler(black_box(DESC_A), black_box(DESC_B))));
    });
    g.finish();
}

fn bench_regex(c: &mut Criterion) {
    let mut g = c.benchmark_group("regex");
    let size_re = Regex::new_ci(r#"(\d+(?:\.\d+)?)\s*(?:''|'|"|-inch|inch|in\b)"#).unwrap();
    g.bench_function("size_extraction", |b| {
        b.iter(|| black_box(size_re.captures(black_box(NAME_A))));
    });
    let word_re = Regex::new(r"\w+").unwrap();
    g.bench_function("word_find_iter", |b| {
        b.iter(|| black_box(word_re.find_iter(black_box(DESC)).count()));
    });
    g.finish();
}

fn bench_embedding(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocking");
    let embedder = TupleEmbedder::new(256);
    g.bench_function("embed_256d", |b| {
        b.iter(|| black_box(embedder.embed_text(black_box(DESC))));
    });
    let lsh = HyperplaneLsh::new(256, 16, 8, 7);
    let v = embedder.embed_text(DESC);
    g.bench_function("lsh_signature_16x8", |b| {
        b.iter(|| black_box(lsh.signature(black_box(&v))));
    });
    g.finish();
}

fn bench_votes(c: &mut Criterion) {
    let mut g = c.benchmark_group("votes");
    let mut packed = PackedVotes::with_capacity(100_000);
    for i in 0..100_000u32 {
        packed.push(match i % 5 {
            0 => Label::Match,
            1 | 2 => Label::NonMatch,
            _ => Label::Abstain,
        });
    }
    let scalar = packed.decode();
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("counts_packed_100k", |b| {
        b.iter(|| black_box(black_box(&packed).counts()));
    });
    g.bench_function("counts_scalar_100k", |b| {
        b.iter(|| {
            let (mut m, mut nm, mut a) = (0usize, 0usize, 0usize);
            for &v in black_box(&scalar).iter() {
                match v {
                    1.. => m += 1,
                    0 => a += 1,
                    _ => nm += 1,
                }
            }
            black_box((m, nm, a))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_text,
    bench_regex,
    bench_embedding,
    bench_votes
);
criterion_main!(benches);
