//! Output checks that hold at every commit: a report is a pure function of
//! `(circuit, config, seed)`.
//!
//! A report is never checked for `symmetry_error == 0`: the hier and
//! deterministic engines legitimately report non-zero symmetry error on the
//! bundled circuits.

use apls_service::json::Json;

/// The fields of one `place` answer (plain envelope or streamed report
/// frame) the benchmark checks and times.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub circuit: String,
    pub seed: u64,
    pub cache_hit: bool,
    pub queue_ms: f64,
    pub solve_ms: f64,
    pub total_ms: f64,
    pub report: String,
}

/// Decodes an answer, failing on anything but `status:"ok"`.
pub fn parse_envelope(line: &str) -> Result<Envelope, String> {
    let json = Json::parse(line).map_err(|e| format!("answer is not JSON ({e}): {line:.200}"))?;
    let status = json.get("status").and_then(Json::as_str).unwrap_or("(none)");
    if status != "ok" {
        return Err(format!("status {status}: {line:.300}"));
    }
    let field = |name: &str| json.get(name).ok_or_else(|| format!("answer has no '{name}'"));
    let number =
        |name: &str| field(name)?.as_f64().ok_or_else(|| format!("'{name}' is not a number"));
    Ok(Envelope {
        circuit: field("circuit")?.as_str().ok_or("'circuit' is not a string")?.to_string(),
        seed: field("seed")?.as_u64().ok_or("'seed' is not an integer")?,
        cache_hit: field("cache_hit")?.as_bool().ok_or("'cache_hit' is not a boolean")?,
        queue_ms: number("queue_ms")?,
        solve_ms: number("solve_ms")?,
        total_ms: number("total_ms")?,
        report: field("report")?.as_str().ok_or("'report' is not a string")?.to_string(),
    })
}

/// The envelope echoes the pinned seed and circuit, and its cache flag
/// matches the plan.
pub fn check_envelope(
    envelope: &Envelope,
    circuit: &str,
    seed: u64,
    hit: bool,
) -> Result<(), String> {
    if envelope.circuit != circuit {
        return Err(format!("circuit echo {:?}, sent {circuit:?}", envelope.circuit));
    }
    if envelope.seed != seed {
        return Err(format!("seed echo {}, sent {seed}", envelope.seed));
    }
    if envelope.cache_hit != hit {
        return Err(format!(
            "cache_hit {} but the plan makes this request a {} ({circuit}, seed {seed})",
            envelope.cache_hit,
            if hit { "hit" } else { "miss" }
        ));
    }
    Ok(())
}

/// `body` is byte-equal to `expected` (the in-process reference solve, or
/// the body the key's miss answered with).
pub fn check_body(body: &str, expected: &str) -> Result<(), String> {
    if body == expected {
        return Ok(());
    }
    let at = body.bytes().zip(expected.bytes()).take_while(|(a, b)| a == b).count();
    Err(format!(
        "report differs from the reference at byte {at} (lengths {} vs {}): …{:.60}",
        body.len(),
        expected.len(),
        body.get(at.saturating_sub(20)..).unwrap_or(""),
    ))
}

/// The best placement's cost, after checking it is overlap-free.
pub fn best_cost(report: &str) -> Result<f64, String> {
    let json = Json::parse(report).map_err(|e| format!("report is not JSON: {e}"))?;
    let best = json.get("best").ok_or("report has no 'best'")?;
    let overlap =
        best.get("overlap_area").and_then(Json::as_f64).ok_or("best has no overlap_area")?;
    if overlap != 0.0 {
        return Err(format!("best placement overlaps (overlap_area {overlap})"));
    }
    best.get("cost").and_then(Json::as_f64).ok_or_else(|| "best has no cost".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_circuit::benchmarks;
    use apls_portfolio::run_portfolio;
    use apls_service::{JobSpec, PlacementService, ServiceClient, ServiceConfig};

    #[test]
    fn the_checker_accepts_a_real_answer_and_rejects_corrupted_ones() {
        let spec =
            JobSpec::bundled("miller_opamp_fig6").with_seed(41).with_restarts(1).with_fast(true);
        let circuit = benchmarks::by_name("miller_opamp_fig6").expect("bundled");
        let reference = run_portfolio(&circuit, &spec.resolved_config(41)).to_json_deterministic();
        // the answer echoes the circuit's own name
        let echo = circuit.name.as_str();

        let service = PlacementService::start(ServiceConfig::default()).expect("binds");
        let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
        let line = client.request_line(&spec.to_json_line()).expect("answers");
        client.shutdown().expect("acknowledged");
        service.join();

        let envelope = parse_envelope(&line).expect("ok answer");
        check_envelope(&envelope, echo, 41, false).expect("echoes the request");
        check_body(&envelope.report, &reference).expect("matches the reference");
        assert!(best_cost(&envelope.report).expect("overlap-free") > 0.0);

        // One corrupted byte inside the report.
        let digit = line.find("\\\"cost\\\": ").expect("report has a cost") + 10;
        let mut bytes = line.clone().into_bytes();
        bytes[digit] = if bytes[digit] == b'9' { b'8' } else { b'9' };
        let corrupted =
            parse_envelope(std::str::from_utf8(&bytes).expect("ascii")).expect("still ok");
        assert!(check_body(&corrupted.report, &reference).is_err());

        // A flipped cache flag.
        let flipped =
            parse_envelope(&line.replace("\"cache_hit\":false", "\"cache_hit\":true")).expect("ok");
        assert!(check_envelope(&flipped, echo, 41, false).is_err());
        // A wrong seed or circuit echo.
        assert!(check_envelope(&envelope, echo, 42, false).is_err());
        assert!(check_envelope(&envelope, "miller_v2", 41, false).is_err());
    }

    #[test]
    fn an_error_answer_is_not_ok() {
        assert!(parse_envelope("{\"status\":\"retry\",\"error\":\"job queue full\"}").is_err());
        assert!(parse_envelope("not json").is_err());
    }

    #[test]
    fn an_overlapping_best_placement_is_rejected() {
        let report = "{\"best\": {\"cost\": 10.0, \"overlap_area\": 4}}";
        assert!(best_cost(report).is_err());
        assert_eq!(best_cost(&report.replace(": 4", ": 0")), Ok(10.0));
    }
}
