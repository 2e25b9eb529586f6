//! The observability endpoints: Prometheus text-format `/metrics`, liveness
//! (`/healthz`) and readiness (`/readyz`), answered on the metrics listener's
//! connections by the reactor ([`crate::reactor`]).
//!
//! Deliberately minimal — GET only, one request per connection,
//! `Connection: close` — because its sole clients are scrapers and load
//! balancers, and because the job protocol (JSON lines over TCP) must stay
//! the only stateful surface. This module holds no socket: it parses the
//! request line the reactor framed, routes it and formats the response.

use crate::reply::OVERLOADED_LINE;
use crate::server::Shared;

/// Largest request head the reactor buffers on a metrics connection before
/// answering 400.
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Prometheus metric-name prefix for everything in the registry.
const METRIC_PREFIX: &str = "apls_";

const TEXT: &str = "text/plain; charset=utf-8";

/// The response to one request line; `None` stands for a head over
/// [`MAX_HEAD_BYTES`] or one that is not UTF-8.
pub(crate) fn answer(request_line: Option<&str>, shared: &Shared) -> String {
    let Some(path) = request_line.and_then(request_path) else {
        return response(400, TEXT, "bad request\n");
    };
    match path {
        "/metrics" => {
            shared.refresh_gauges();
            let body = shared.metrics.registry.render_prometheus(METRIC_PREFIX);
            response(200, "text/plain; version=0.0.4; charset=utf-8", &body)
        }
        "/healthz" => response(200, TEXT, "ok\n"),
        "/readyz" => {
            let (ready, reason) = shared.is_ready();
            response(if ready { 200 } else { 503 }, TEXT, &format!("{reason}\n"))
        }
        _ => response(404, TEXT, "not found\n"),
    }
}

/// The refusal for a metrics connection beyond the connection limit: a 503
/// carrying the job protocol's refusal line.
pub(crate) fn overloaded() -> Vec<u8> {
    response(503, "application/json", &String::from_utf8_lossy(OVERLOADED_LINE)).into_bytes()
}

/// The path of a `GET <path> HTTP/1.x` request line, query stripped; `None`
/// for anything else.
fn request_path(line: &str) -> Option<&str> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    if method != "GET" || !version.starts_with("HTTP/1.") {
        return None;
    }
    // Scrapers may append query strings; the endpoints ignore them.
    path.split('?').next()
}

fn response(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "OK",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::{request_path, response};

    #[test]
    fn only_http1_gets_yield_a_path_and_queries_are_stripped() {
        assert_eq!(request_path("GET /metrics HTTP/1.1\r"), Some("/metrics"));
        assert_eq!(request_path("GET /readyz?verbose=1 HTTP/1.0"), Some("/readyz"));
        assert_eq!(request_path("POST / HTTP/1.1"), None);
        assert_eq!(request_path("GET / HTTP/2"), None);
        assert_eq!(request_path("GET /healthz"), None);
        assert_eq!(request_path(""), None);
    }

    #[test]
    fn a_response_carries_its_status_type_length_and_close() {
        assert_eq!(
            response(503, "text/plain; charset=utf-8", "recovery replay in progress\n"),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 28\r\nConnection: close\r\n\r\nrecovery replay in progress\n"
        );
    }
}
