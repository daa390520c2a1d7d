//! The line-delimited JSON wire protocol over a std TCP listener.
//!
//! One request per line, one reply per line.  Every reply carries
//! `"ok": true|false`; failures add `"error"`.  Operations:
//!
//! * `{"op":"ping"}` — liveness probe;
//! * `{"op":"compile","plan":ID,"precision":"2d","num_variables":N,
//!   "degree":D,"constant":C,"monomials":[{"coefficient":A,
//!   "variables":[..]},..]}` — compile and register a plan (`precision`
//!   defaults to `"2d"`, `constant` to 0; the reply names the precision
//!   used);
//! * `{"op":"eval","plan":ID,"inputs":[[c0,c1,..] per variable]}` —
//!   evaluate; the reply carries `value`, `gradient` and `coalesced` (how
//!   many concurrent requests shared the launch);
//! * `{"op":"metrics","plan":ID}` — the plan's [`MetricsSnapshot`] fields.
//!
//! Each connection gets its own thread, so concurrent `eval` lines from
//! different connections reach the plan queue concurrently and coalesce —
//! the wire path exercises exactly the in-process protocol.
//!
//! A line holds at most 64 MiB before its `\n`.  A longer line gets an
//! error reply naming the limit, and then the connection closes, because
//! the rest of that line cannot be told from the next request.  A line
//! that is not UTF-8 gets an error reply, and the connection stays open.
//!
//! [`MetricsSnapshot`]: crate::MetricsSnapshot

use crate::json::{num_array, obj, Json};
use crate::service::{ServeError, Service};
use psmd_multidouble::Precision;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running wire server: accepts connections until shut down (or
/// dropped).
pub struct WireServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds a listener (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    pub fn bind(service: Arc<Service>, addr: &str) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let _ = handle_connection(service, stream);
                });
            }
        });
        Ok(WireServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.  Already
    /// established connections finish on their own threads.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The most bytes a request line may hold before its `\n`: 32 bytes for
/// each of the 2,097,152 series coefficients a compiled source may span, so
/// every admissible `eval` line fits.
const MAX_LINE_BYTES: usize = 64 << 20;

/// What [`read_line`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineRead {
    /// A line, without its `\n` or `\r\n`, is in the buffer.
    Line,
    /// The stream ended before another byte.
    End,
    /// The line runs past the limit; only `limit + 1` of its bytes were
    /// read.
    TooLong,
}

/// Reads one line of at most `limit` bytes before its `\n` into `buf`,
/// which is cleared first and reused across lines, and strips `\n` or
/// `\r\n` as [`BufRead::lines`] does.  Unlike `lines`, it never buffers
/// more than `limit + 1` bytes, however long the line.
fn read_line(
    reader: &mut impl BufRead,
    limit: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    buf.clear();
    let read = reader.take(limit as u64 + 1).read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(LineRead::End);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if read > limit {
        return Ok(LineRead::TooLong);
    }
    Ok(LineRead::Line)
}

fn handle_connection(service: Arc<Service>, stream: TcpStream) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let read = read_line(&mut reader, MAX_LINE_BYTES, &mut buf)?;
        let reply = match read {
            LineRead::End => return Ok(()),
            LineRead::TooLong => error_reply(format!(
                "request line longer than the limit of {MAX_LINE_BYTES} bytes"
            )),
            LineRead::Line => match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => handle_line(&service, line),
                Err(_) => error_reply("request line is not UTF-8"),
            },
        };
        writer.write_all(reply.to_string().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if read == LineRead::TooLong {
            // The rest of the line cannot be told from the next request.
            return Ok(());
        }
    }
}

fn error_reply(message: impl Into<String>) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

fn handle_line(service: &Service, line: &str) -> Json {
    let request = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_reply(format!("bad json: {e}")),
    };
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return error_reply("missing 'op'");
    };
    let result = match op {
        "ping" => Ok(obj(vec![
            ("ok", Json::Bool(true)),
            ("pong", Json::Bool(true)),
        ])),
        "compile" => op_compile(service, &request),
        "eval" => op_eval(service, &request),
        "metrics" => op_metrics(service, &request),
        other => Err(format!("unknown op '{other}'")),
    };
    match result {
        Ok(reply) => reply,
        Err(message) => error_reply(message),
    }
}

fn plan_id(request: &Json) -> Result<&str, String> {
    request
        .get("plan")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing 'plan'".to_string())
}

fn serve_err(e: ServeError) -> String {
    e.to_string()
}

/// The precision of a `compile` line without `"precision"`: double-double.
const DEFAULT_PRECISION: Precision = Precision::D2;

fn op_compile(service: &Service, request: &Json) -> Result<Json, String> {
    let id = plan_id(request)?;
    let precision = match request.get("precision").and_then(Json::as_str) {
        Some(label) => {
            Precision::parse_label(label).ok_or_else(|| format!("unknown precision '{label}'"))?
        }
        None => DEFAULT_PRECISION,
    };
    let num_variables = request
        .get("num_variables")
        .and_then(Json::as_usize)
        .ok_or_else(|| "missing 'num_variables'".to_string())?;
    let degree = request
        .get("degree")
        .and_then(Json::as_usize)
        .ok_or_else(|| "missing 'degree'".to_string())?;
    let constant = request
        .get("constant")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let monomials_json = request
        .get("monomials")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing 'monomials'".to_string())?;
    let mut monomials = Vec::with_capacity(monomials_json.len());
    for (i, m) in monomials_json.iter().enumerate() {
        let coefficient = m
            .get("coefficient")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("monomial {i}: missing 'coefficient'"))?;
        let variables = m
            .get("variables")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("monomial {i}: missing 'variables'"))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| format!("monomial {i}: non-integer variable index"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
        monomials.push((coefficient, variables));
    }
    service
        .register_f64(id, precision, num_variables, degree, constant, &monomials)
        .map_err(serve_err)?;
    Ok(obj(vec![
        ("ok", Json::Bool(true)),
        ("plan", Json::Str(id.to_string())),
        ("precision", Json::Str(precision.label().to_string())),
    ]))
}

fn op_eval(service: &Service, request: &Json) -> Result<Json, String> {
    let id = plan_id(request)?;
    let inputs_json = request
        .get("inputs")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing 'inputs'".to_string())?;
    let mut inputs = Vec::with_capacity(inputs_json.len());
    for (v, series) in inputs_json.iter().enumerate() {
        let coeffs = series
            .as_array()
            .ok_or_else(|| format!("input {v} is not an array"))?
            .iter()
            .map(|c| {
                c.as_f64()
                    .ok_or_else(|| format!("input {v}: non-numeric coefficient"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        inputs.push(coeffs);
    }
    let evaluation = service.submit_f64(id, &inputs).map_err(serve_err)?;
    Ok(obj(vec![
        ("ok", Json::Bool(true)),
        ("value", num_array(&evaluation.value)),
        (
            "gradient",
            Json::Arr(evaluation.gradient.iter().map(|g| num_array(g)).collect()),
        ),
        ("coalesced", Json::Num(evaluation.coalesced as f64)),
    ]))
}

fn op_metrics(service: &Service, request: &Json) -> Result<Json, String> {
    let id = plan_id(request)?;
    let snapshot = service.metrics(id).map_err(serve_err)?;
    let histogram = snapshot
        .batch_histogram
        .iter()
        .map(|&n| Json::Num(n as f64))
        .collect();
    let abandon_histogram = snapshot
        .abandon_histogram
        .iter()
        .map(|&n| Json::Num(n as f64))
        .collect();
    Ok(obj(vec![
        ("ok", Json::Bool(true)),
        ("submitted", Json::Num(snapshot.submitted as f64)),
        ("completed", Json::Num(snapshot.completed as f64)),
        ("busy_rejected", Json::Num(snapshot.busy_rejected as f64)),
        (
            "deadline_expired",
            Json::Num(snapshot.deadline_expired as f64),
        ),
        ("launches", Json::Num(snapshot.launches as f64)),
        ("launches_saved", Json::Num(snapshot.launches_saved as f64)),
        (
            "cancelled_launches",
            Json::Num(snapshot.cancelled_launches as f64),
        ),
        ("detached_slots", Json::Num(snapshot.detached_slots as f64)),
        ("mean_batch", Json::Num(snapshot.mean_batch())),
        ("batch_histogram", Json::Arr(histogram)),
        ("abandon_histogram", Json::Arr(abandon_histogram)),
        ("queue_depth", Json::Num(snapshot.queue_depth as f64)),
        ("p50_us", Json::Num(snapshot.p50_us as f64)),
        ("p99_us", Json::Num(snapshot.p99_us as f64)),
        (
            "plan_cache_hits",
            Json::Num(snapshot.plan_cache.map_or(0, |c| c.hits) as f64),
        ),
        (
            "pool_rendezvous",
            Json::Num(snapshot.pool_rendezvous.unwrap_or(0) as f64),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line [`read_line`] reads from `input` at `limit`, until the
    /// end of the stream or the first over-long line.
    fn lines(input: &[u8], limit: usize) -> Vec<Result<String, LineRead>> {
        let mut reader = input;
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        loop {
            match read_line(&mut reader, limit, &mut buf).unwrap() {
                LineRead::Line => lines.push(Ok(String::from_utf8(buf.clone()).unwrap())),
                LineRead::End => return lines,
                LineRead::TooLong => {
                    lines.push(Err(LineRead::TooLong));
                    return lines;
                }
            }
        }
    }

    fn ok(line: &str) -> Result<String, LineRead> {
        Ok(line.to_string())
    }

    #[test]
    fn a_line_exactly_at_the_limit_is_read_whole() {
        assert_eq!(lines(b"12345678\nab\n", 8), [ok("12345678"), ok("ab")]);
        // The last line needs no newline, as with `lines()`.
        assert_eq!(lines(b"12345678", 8), [ok("12345678")]);
        assert_eq!(lines(b"", 8), []);
    }

    #[test]
    fn a_line_one_byte_over_the_limit_is_too_long() {
        assert_eq!(
            lines(b"ab\n123456789\nnext\n", 8),
            [ok("ab"), Err(LineRead::TooLong)]
        );
        assert_eq!(lines(b"123456789", 8), [Err(LineRead::TooLong)]);
    }

    #[test]
    fn crlf_is_stripped_and_its_carriage_return_counts_toward_the_limit() {
        assert_eq!(
            lines(b"1234567\r\n\r\nx\r", 8),
            [ok("1234567"), ok(""), ok("x\r")]
        );
        assert_eq!(lines(b"12345678\r\n", 8), [Err(LineRead::TooLong)]);
    }
}
