//! `panda report` — render a run journal (JSONL from `panda match
//! --journal`) as a human-readable debugging report: the span tree with
//! duration-histogram sparklines, EM convergence per warm start, the
//! transitivity projection summary, auto-LF grid decisions, and the
//! paper's "where does each LF disagree with the model" panel.

use panda_obs::SpanStats;
use panda_serve::client::{self, Reply};
use serde::Value;
use std::collections::BTreeMap;

/// One parsed journal event (the subset of fields the report uses).
struct Event {
    kind: String,
    span: u64,
    parent: u64,
    fields: Value,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.get_field(key)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn f_str<'a>(e: &'a Event, key: &str) -> &'a str {
    field(&e.fields, key).and_then(as_str).unwrap_or("?")
}

fn f_f64(e: &Event, key: &str) -> f64 {
    field(&e.fields, key).and_then(as_f64).unwrap_or(f64::NAN)
}

fn f_u64(e: &Event, key: &str) -> u64 {
    field(&e.fields, key).and_then(as_u64).unwrap_or(0)
}

fn parse_journal(text: &str, path: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::parse_value(line)
            .map_err(|e| format!("{path}:{}: bad journal line: {e:?}", lineno + 1))?;
        let kind = field(&v, "kind")
            .and_then(as_str)
            .ok_or_else(|| format!("{path}:{}: event without a kind", lineno + 1))?
            .to_string();
        events.push(Event {
            kind,
            span: field(&v, "span").and_then(as_u64).unwrap_or(0),
            parent: field(&v, "parent").and_then(as_u64).unwrap_or(0),
            fields: field(&v, "fields").cloned().unwrap_or(Value::Null),
        });
    }
    Ok(events)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// Render the span tree: each `span` event is a node, linked by
/// span/parent ids. Events from worker threads parent to the root.
fn render_span_tree(out: &mut String, events: &[Event]) {
    let spans: Vec<&Event> = events.iter().filter(|e| e.kind == "span").collect();
    if spans.is_empty() {
        return;
    }
    out.push_str("span tree:\n");
    // Children in id order = creation order.
    let mut children: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for s in &spans {
        children.entry(s.parent).or_default().push(s);
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| s.span);
    }
    fn walk(out: &mut String, children: &BTreeMap<u64, Vec<&Event>>, id: u64, depth: usize) {
        if let Some(kids) = children.get(&id) {
            for kid in kids {
                out.push_str(&format!(
                    "  {:indent$}{} ({})\n",
                    "",
                    f_str(kid, "name"),
                    fmt_ms(f_u64(kid, "dur_ns")),
                    indent = depth * 2
                ));
                walk(out, children, kid.span, depth + 1);
            }
        }
    }
    walk(out, &children, 0, 0);

    // Per-name aggregate with the log2 duration histogram as a sparkline,
    // through the metrics snapshot's own `SpanStats`.
    out.push_str("\nspan histograms:\n");
    let mut agg: BTreeMap<&str, SpanStats> = BTreeMap::new();
    for s in &spans {
        agg.entry(f_str(s, "name"))
            .or_default()
            .record(u128::from(f_u64(s, "dur_ns")));
    }
    let wide = agg.keys().map(|k| k.len()).max().unwrap_or(0);
    for (name, stats) in &agg {
        out.push_str(&format!(
            "  {name:<wide$}  n={:<6} total={:>10}  {}\n",
            stats.count,
            fmt_ms(stats.total_ns as u64),
            stats.sparkline(),
        ));
    }
}

/// EM convergence per (model, warm start): iterations, log-likelihood
/// trajectory endpoints, final posterior shift.
fn render_em(out: &mut String, events: &[Event]) {
    let iters: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == "model.em.iter")
        .collect();
    if iters.is_empty() {
        return;
    }
    let mut runs: BTreeMap<(String, String), Vec<&Event>> = BTreeMap::new();
    for e in &iters {
        runs.entry((f_str(e, "model").to_string(), f_str(e, "init").to_string()))
            .or_default()
            .push(e);
    }
    out.push_str("\nEM convergence (per warm start):\n");
    out.push_str(&format!(
        "  {:<10} {:<12} {:>6} {:>14} {:>14} {:>11} {:>8}\n",
        "model", "init", "iters", "ll(first)", "ll(last)", "delta", "pi"
    ));
    for ((model, init), run) in &runs {
        let last = run.last().expect("non-empty run");
        out.push_str(&format!(
            "  {:<10} {:<12} {:>6} {:>14.3} {:>14.3} {:>11.2e} {:>8.4}\n",
            model,
            init,
            run.len(),
            f_f64(run[0], "ll"),
            f_f64(last, "ll"),
            f_f64(last, "delta"),
            f_f64(last, "pi"),
        ));
    }
}

fn render_transitivity(out: &mut String, events: &[Event]) {
    let sweeps = events
        .iter()
        .filter(|e| e.kind == "model.transitivity.sweep")
        .count();
    let Some(proj) = events
        .iter()
        .rfind(|e| e.kind == "model.transitivity.projection")
    else {
        return;
    };
    out.push_str(&format!(
        "\ntransitivity projection: {} triangles, {} boosted, {} sweeps ({} recorded), \
         violation mass {:.4} -> {:.4}\n",
        f_u64(proj, "triangles"),
        f_u64(proj, "boosted"),
        f_u64(proj, "sweeps"),
        sweeps,
        f_f64(proj, "violation_mass_pre"),
        f_f64(proj, "violation_mass_post"),
    ));
}

fn render_autolf(out: &mut String, events: &[Event]) {
    let cells: Vec<&Event> = events.iter().filter(|e| e.kind == "autolf.cell").collect();
    let emits: Vec<&Event> = events.iter().filter(|e| e.kind == "autolf.emit").collect();
    if cells.is_empty() && emits.is_empty() {
        return;
    }
    let kept = cells
        .iter()
        .filter(|e| f_str(e, "decision") == "keep")
        .count();
    out.push_str(&format!(
        "\nauto-LF grid: {} cells scored, {} kept, {} pruned, {} emitted\n",
        cells.len(),
        kept,
        cells.len() - kept,
        emits.len()
    ));
    for e in &emits {
        out.push_str(&format!(
            "  {:<12} {} ~ {}  config={}  theta={:.2}  est.precision={:.3}  support={}\n",
            f_str(e, "name"),
            f_str(e, "attr"),
            f_str(e, "right_attr"),
            f_str(e, "config"),
            f_f64(e, "threshold"),
            f_f64(e, "est_precision"),
            f_u64(e, "est_support"),
        ));
    }
}

/// The paper's debugging panel, in text: per LF, where it disagrees with
/// the labeling model, worst offenders first.
fn render_disagreements(out: &mut String, events: &[Event], top: usize) {
    // The journal holds one lf.stats batch per refit; the last batch
    // describes the final model.
    let stats: Vec<&Event> = events.iter().filter(|e| e.kind == "lf.stats").collect();
    if stats.is_empty() {
        return;
    }
    let mut latest: BTreeMap<&str, &Event> = BTreeMap::new();
    for e in &stats {
        latest.insert(f_str(e, "lf"), e);
    }
    let mut rows: Vec<&Event> = latest.into_values().collect();
    rows.sort_by_key(|e| {
        std::cmp::Reverse(f_u64(e, "model_disagree_fp") + f_u64(e, "model_disagree_fn"))
    });
    out.push_str(&format!(
        "\ntop disagreements per LF (final refit, top {top}):\n"
    ));
    out.push_str(&format!(
        "  {:<16} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10}\n",
        "lf", "+1", "-1", "abstain", "model.FP", "model.FN", "conflicts"
    ));
    for e in rows.iter().take(top) {
        out.push_str(&format!(
            "  {:<16} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10}\n",
            f_str(e, "lf"),
            f_u64(e, "n_match"),
            f_u64(e, "n_nonmatch"),
            f_u64(e, "n_abstain"),
            f_u64(e, "model_disagree_fp"),
            f_u64(e, "model_disagree_fn"),
            f_u64(e, "conflict_pairs"),
        ));
    }
}

/// Render a full report from parsed journal text.
pub fn render(text: &str, path: &str, top: usize) -> Result<String, String> {
    let events = parse_journal(text, path)?;
    if events.is_empty() {
        return Err(format!("{path}: empty journal (no events)"));
    }
    let mut out = String::new();
    let dropped: u64 = events
        .iter()
        .filter(|e| e.kind == "journal.dropped")
        .map(|e| f_u64(e, "dropped"))
        .sum();
    out.push_str(&format!("journal: {} events", events.len()));
    if dropped > 0 {
        out.push_str(&format!(" (+{dropped} dropped at the capacity bound)"));
    }
    out.push('\n');
    render_span_tree(&mut out, &events);
    render_em(&mut out, &events);
    render_transitivity(&mut out, &events);
    render_autolf(&mut out, &events);
    render_disagreements(&mut out, &events, top);
    Ok(out)
}

/// Serialize a parsed [`Value`] back to compact JSON (the vendored
/// `serde_json::to_string` needs `Serialize`, which `Value` itself does
/// not implement).
fn json_of(v: &Value) -> String {
    fn escape_into(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn write(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => escape_into(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(item, out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    write(val, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    write(v, &mut out);
    out
}

/// Split `--follow`'s URL into a connect address and a request path.
/// Accepts `http://host:port[/path]` or bare `host:port[/path]`; the
/// path defaults to `/events`.
fn parse_follow_url(url: &str) -> Result<(String, String), String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/events"),
    };
    if host.is_empty() || !host.contains(':') {
        return Err(format!("--follow expects host:port[/path], got {url:?}"));
    }
    let path = if path == "/" { "/events" } else { path };
    Ok((host.to_string(), path.to_string()))
}

/// `panda report --follow`: tail a live server's journal ring over
/// `GET /events?since=N` long-polls, printing each event as a JSON
/// line and resuming from the returned cursor.
fn follow(url: &str, mut since: u64, max_polls: usize, timeout_ms: u64) -> Result<(), String> {
    let (addr, base_path) = parse_follow_url(url)?;
    let mut polls = 0usize;
    loop {
        let sep = if base_path.contains('?') { '&' } else { '?' };
        let path = format!("{base_path}{sep}since={since}&timeout_ms={timeout_ms}");
        let Reply { status, body, .. } = client::request(addr.as_str(), "GET", &path, "", None)
            .map_err(|e| format!("{addr}{path}: {e}"))?;
        if status != 200 {
            return Err(format!("{addr}{path}: HTTP {status}: {body}"));
        }
        let v = serde_json::parse_value(&body)
            .map_err(|e| format!("{addr}{path}: bad /events body: {e}"))?;
        let next = field(&v, "next")
            .and_then(as_u64)
            .ok_or_else(|| format!("{addr}{path}: response has no \"next\" cursor"))?;
        let missed = field(&v, "missed").and_then(as_u64).unwrap_or(0);
        if missed > 0 {
            eprintln!("# {missed} event(s) dropped by the ring before seq {next}");
        }
        if let Some(Value::Array(events)) = field(&v, "events") {
            for e in events {
                println!("{}", json_of(e));
            }
        }
        since = next;
        polls += 1;
        if max_polls > 0 && polls >= max_polls {
            return Ok(());
        }
    }
}

/// `panda report`
pub fn run_report(argv: &[String]) -> Result<(), String> {
    let args = crate::args::Args::parse(argv, &[])?;
    if let Some(url) = args.optional("follow") {
        let since: u64 = args.get_or("since", 0)?;
        let max_polls: usize = args.get_or("max-polls", 0)?;
        let timeout_ms: u64 = args.get_or("poll-timeout-ms", 10_000)?;
        return follow(url, since, max_polls, timeout_ms);
    }
    let path = args.required("journal")?;
    let top: usize = args.get_or("top", 10)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    print!("{}", render(&text, path, top)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature hand-written journal covering every section.
    const JOURNAL: &str = concat!(
        r#"{"seq":0,"ts_us":1,"kind":"session.loaded","span":0,"parent":0,"fields":{"left_rows":4,"right_rows":4,"candidates":6}}"#,
        "\n",
        r#"{"seq":1,"ts_us":5,"kind":"model.em.iter","span":0,"parent":2,"fields":{"model":"panda","init":"smoothed","iter":1,"ll":-120.5,"alpha_m":0.8,"alpha_u":0.9,"delta":0.25,"pi":0.1}}"#,
        "\n",
        r#"{"seq":2,"ts_us":6,"kind":"model.em.iter","span":0,"parent":2,"fields":{"model":"panda","init":"smoothed","iter":2,"ll":-100.25,"alpha_m":0.85,"alpha_u":0.92,"delta":0.001,"pi":0.12}}"#,
        "\n",
        r#"{"seq":3,"ts_us":7,"kind":"model.transitivity.sweep","span":0,"parent":2,"fields":{"sweep":1,"max_viol":0.5,"adjusted":3}}"#,
        "\n",
        r#"{"seq":4,"ts_us":8,"kind":"model.transitivity.projection","span":0,"parent":2,"fields":{"triangles":1,"boosted":2,"sweeps":1,"violation_mass_pre":0.8,"violation_mass_post":0.01}}"#,
        "\n",
        r#"{"seq":5,"ts_us":9,"kind":"autolf.cell","span":0,"parent":0,"fields":{"decision":"keep","attr":"name","right_attr":"name","config":"lower+ws|space|uniform|jaccard","threshold":0.6,"est_precision":0.9,"est_support":12}}"#,
        "\n",
        r#"{"seq":6,"ts_us":10,"kind":"autolf.cell","span":0,"parent":0,"fields":{"decision":"prune","attr":"addr","right_attr":"addr","config":"lower+ws|space|uniform|jaccard","est_precision":0.4,"est_support":2}}"#,
        "\n",
        r#"{"seq":7,"ts_us":11,"kind":"autolf.emit","span":0,"parent":2,"fields":{"name":"auto_lf_0","attr":"name","right_attr":"name","config":"lower+ws|space|uniform|jaccard","threshold":0.6,"est_precision":0.9,"est_support":12}}"#,
        "\n",
        r#"{"seq":8,"ts_us":12,"kind":"lf.stats","span":0,"parent":2,"fields":{"lf":"auto_lf_0","n_match":12,"n_nonmatch":3,"n_abstain":5,"coverage":0.75,"overlap":0.1,"conflict":0.05,"model_disagree_fp":2,"model_disagree_fn":1,"conflict_pairs":4}}"#,
        "\n",
        r#"{"seq":9,"ts_us":13,"kind":"span","span":3,"parent":2,"fields":{"name":"session.refit","dur_ns":1500000}}"#,
        "\n",
        r#"{"seq":10,"ts_us":14,"kind":"span","span":2,"parent":0,"fields":{"name":"session.load","dur_ns":9000000}}"#,
        "\n",
    );

    #[test]
    fn renders_every_section() {
        let report = render(JOURNAL, "test.jsonl", 10).unwrap();
        assert!(report.contains("journal: 11 events"), "{report}");
        // Span tree: refit nested under load.
        assert!(report.contains("session.load (9.000ms)"));
        assert!(report.contains("    session.refit (1.500ms)"));
        assert!(report.contains("span histograms:"));
        // EM table.
        assert!(report.contains("EM convergence"));
        assert!(report.contains("panda"));
        assert!(report.contains("smoothed"));
        assert!(report.contains("-120.5"));
        assert!(report.contains("-100.25"));
        // Transitivity.
        assert!(report.contains("transitivity projection: 1 triangles, 2 boosted"));
        // Auto-LF.
        assert!(report.contains("auto-LF grid: 2 cells scored, 1 kept, 1 pruned, 1 emitted"));
        assert!(report.contains("auto_lf_0"));
        // Disagreements.
        assert!(report.contains("top disagreements per LF"));
        let table_line = report
            .lines()
            .find(|l| l.trim_start().starts_with("auto_lf_0") && l.contains("12"))
            .expect("disagreement row");
        assert!(table_line.contains('2') && table_line.contains('1'));
    }

    #[test]
    fn rejects_garbage_and_empty_journals() {
        assert!(render("", "empty.jsonl", 10).is_err());
        assert!(render("not json\n", "bad.jsonl", 10)
            .unwrap_err()
            .contains("bad.jsonl:1"));
        assert!(render("{\"no_kind\":1}\n", "x.jsonl", 10)
            .unwrap_err()
            .contains("without a kind"));
    }

    #[test]
    fn follow_url_parsing() {
        assert_eq!(
            parse_follow_url("http://127.0.0.1:7700").unwrap(),
            ("127.0.0.1:7700".to_string(), "/events".to_string())
        );
        assert_eq!(
            parse_follow_url("127.0.0.1:7700/").unwrap(),
            ("127.0.0.1:7700".to_string(), "/events".to_string())
        );
        assert_eq!(
            parse_follow_url("http://localhost:80/custom?x=1").unwrap(),
            ("localhost:80".to_string(), "/custom?x=1".to_string())
        );
        assert!(parse_follow_url("http:///events").is_err());
        assert!(parse_follow_url("no-port").is_err());
    }

    #[test]
    fn json_round_trips_through_local_renderer() {
        let line = r#"{"seq":3,"kind":"serve.slow","fields":{"rid":"0-17","dur_us":1500,"ok":true,"note":"a\"b\\c","arr":[1,-2,3.5],"none":null}}"#;
        let v = serde_json::parse_value(line).unwrap();
        assert_eq!(json_of(&v), line);
    }

    #[test]
    fn disagreement_table_keeps_last_refit_and_sorts_worst_first() {
        let journal = concat!(
            r#"{"seq":0,"ts_us":1,"kind":"lf.stats","span":0,"parent":0,"fields":{"lf":"a","n_match":1,"n_nonmatch":1,"n_abstain":1,"model_disagree_fp":9,"model_disagree_fn":9,"conflict_pairs":0}}"#,
            "\n",
            r#"{"seq":1,"ts_us":2,"kind":"lf.stats","span":0,"parent":0,"fields":{"lf":"a","n_match":1,"n_nonmatch":1,"n_abstain":1,"model_disagree_fp":1,"model_disagree_fn":0,"conflict_pairs":0}}"#,
            "\n",
            r#"{"seq":2,"ts_us":3,"kind":"lf.stats","span":0,"parent":0,"fields":{"lf":"b","n_match":1,"n_nonmatch":1,"n_abstain":1,"model_disagree_fp":3,"model_disagree_fn":2,"conflict_pairs":0}}"#,
            "\n",
        );
        let report = render(journal, "t.jsonl", 10).unwrap();
        let a_pos = report.find("\n  a ").expect("row a");
        let b_pos = report.find("\n  b ").expect("row b");
        // b (5 disagreements in the final batch) outranks a (1: the early
        // 18-disagreement batch was superseded by the later refit).
        assert!(b_pos < a_pos, "{report}");
    }
}
