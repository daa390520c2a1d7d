//! End-to-end smoke of the NDJSON wire protocol: a real TCP listener on an
//! ephemeral port, compile/eval/metrics round-trips, error replies and a
//! clean shutdown.

use psmd_core::{Engine, Polynomial};
use psmd_multidouble::{Precision, Qd};
use psmd_series::Series;
use psmd_serve::json::Json;
use psmd_serve::{ServeConfig, Service, WireServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &WireServer) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        Json::parse(&reply).expect("reply must be valid json")
    }
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

#[test]
fn wire_roundtrip_compile_eval_metrics() {
    let service = Arc::new(Service::new(
        Engine::builder().threads(0).build(),
        ServeConfig::default(),
    ));
    let mut server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server);

    // Liveness.
    let reply = client.roundtrip(r#"{"op":"ping"}"#);
    assert!(ok(&reply), "{reply:?}");
    assert_eq!(reply.get("pong").and_then(Json::as_bool), Some(true));

    // Compile p = 1 + 2*x0*x1 + 3*x1 at degree 2 in double-double.
    let reply = client.roundtrip(
        r#"{"op":"compile","plan":"p","precision":"2d","num_variables":2,"degree":2,
            "constant":1.0,"monomials":[
              {"coefficient":2.0,"variables":[0,1]},
              {"coefficient":3.0,"variables":[1]}]}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert!(ok(&reply), "{reply:?}");

    // Evaluate at x0 = 1 + t, x1 = 2 (series coefficients per variable).
    let reply =
        client.roundtrip(r#"{"op":"eval","plan":"p","inputs":[[1.0,1.0,0.0],[2.0,0.0,0.0]]}"#);
    assert!(ok(&reply), "{reply:?}");
    let value = reply.get("value").and_then(Json::as_array).expect("value");
    // p(z) = 1 + 2*(1+t)*2 + 3*2 = 11 + 4t.
    assert_eq!(value[0].as_f64(), Some(11.0));
    assert_eq!(value[1].as_f64(), Some(4.0));
    assert_eq!(value[2].as_f64(), Some(0.0));
    let gradient = reply
        .get("gradient")
        .and_then(Json::as_array)
        .expect("gradient");
    assert_eq!(gradient.len(), 2);
    // dp/dx0 = 2*x1 = 4; dp/dx1 = 2*x0 + 3 = 5 + 2t.
    let g0 = gradient[0].as_array().expect("g0");
    assert_eq!(g0[0].as_f64(), Some(4.0));
    let g1 = gradient[1].as_array().expect("g1");
    assert_eq!(g1[0].as_f64(), Some(5.0));
    assert_eq!(g1[1].as_f64(), Some(2.0));
    assert_eq!(reply.get("coalesced").and_then(Json::as_usize), Some(1));

    // The wire result agrees with a direct typed evaluation of the same
    // polynomial.
    let d = 2;
    let coeff = |c: f64| Series::constant(Qd::from_f64(c), d);
    let p = Polynomial::<Qd>::new(
        2,
        coeff(1.0),
        vec![
            psmd_core::Monomial::new(coeff(2.0), vec![0, 1]),
            psmd_core::Monomial::new(coeff(3.0), vec![1]),
        ],
    );
    let engine = Engine::builder().threads(0).build();
    let plan = engine.compile(p);
    let z = vec![
        Series::from_f64_coeffs(&[1.0, 1.0, 0.0]),
        Series::from_f64_coeffs(&[2.0, 0.0, 0.0]),
    ];
    let direct = plan.request(z.as_slice()).run().into_single();
    assert_eq!(direct.value.coeff(0).to_f64(), 11.0);
    assert_eq!(direct.value.coeff(1).to_f64(), 4.0);

    // Metrics reflect the one served request.
    let reply = client.roundtrip(r#"{"op":"metrics","plan":"p"}"#);
    assert!(ok(&reply), "{reply:?}");
    assert_eq!(reply.get("completed").and_then(Json::as_usize), Some(1));
    assert_eq!(reply.get("launches").and_then(Json::as_usize), Some(1));
    assert_eq!(
        reply.get("launches_saved").and_then(Json::as_usize),
        Some(0)
    );
    assert!(reply
        .get("batch_histogram")
        .and_then(Json::as_array)
        .is_some());
    assert!(reply.get("p50_us").and_then(Json::as_f64).is_some());

    // The in-process service sees the same plan.
    assert!(service.plan_ids().contains(&"p".to_string()));

    server.shutdown();
}

/// A `compile` line without `"precision"` compiles in double-double, and the
/// reply says so.
#[test]
fn wire_compile_without_precision_defaults_to_double_double() {
    let service = Arc::new(Service::new(
        Engine::builder().threads(0).build(),
        ServeConfig::default(),
    ));
    let mut server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server);

    // p = 1 + 3*x0*x1 at degree 2.
    let reply = client.roundtrip(
        r#"{"op":"compile","plan":"p","num_variables":2,"degree":2,"constant":1.0,
            "monomials":[{"coefficient":3.0,"variables":[0,1]}]}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert!(ok(&reply), "{reply:?}");
    assert_eq!(reply.get("precision").and_then(Json::as_str), Some("2d"));
    assert_eq!(service.precision_of("p"), Ok(Some(Precision::D2)));

    // At x0 = 1 + t, x1 = 1 - t: p(z) = 4 - 3t^2.
    let reply =
        client.roundtrip(r#"{"op":"eval","plan":"p","inputs":[[1.0,1.0,0.0],[1.0,-1.0,0.0]]}"#);
    assert!(ok(&reply), "{reply:?}");
    let value: Vec<f64> = reply
        .get("value")
        .and_then(Json::as_array)
        .expect("value")
        .iter()
        .map(|c| c.as_f64().expect("a number"))
        .collect();
    assert_eq!(value, vec![4.0, 0.0, -3.0]);

    server.shutdown();
}

#[test]
fn wire_errors_are_structured_replies() {
    let service = Arc::new(Service::new(
        Engine::builder().threads(0).build(),
        ServeConfig::default(),
    ));
    let server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server);

    // Garbage line.
    let reply = client.roundtrip("this is not json");
    assert!(!ok(&reply));
    assert!(reply.get("error").and_then(Json::as_str).is_some());

    // Missing op.
    let reply = client.roundtrip(r#"{"plan":"p"}"#);
    assert!(!ok(&reply));

    // Unknown op.
    let reply = client.roundtrip(r#"{"op":"teleport"}"#);
    assert!(!ok(&reply));

    // Eval against an unregistered plan.
    let reply = client.roundtrip(r#"{"op":"eval","plan":"ghost","inputs":[[1.0]]}"#);
    assert!(!ok(&reply));
    let message = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("ghost"), "{message}");

    // Compile with a malformed monomial (empty variable list).
    let reply = client.roundtrip(
        r#"{"op":"compile","plan":"bad","num_variables":1,"degree":1,"monomials":[{"coefficient":1.0,"variables":[]}]}"#,
    );
    assert!(!ok(&reply));

    // The connection survives every error reply.
    let reply = client.roundtrip(r#"{"op":"ping"}"#);
    assert!(ok(&reply));
}

#[test]
fn wire_eval_with_an_empty_coefficient_array_gets_an_error_reply() {
    let service = Arc::new(Service::new(
        Engine::builder().threads(0).build(),
        ServeConfig::default(),
    ));
    let mut server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server);
    let reply = client.roundtrip(
        r#"{"op":"compile","plan":"p","num_variables":2,"degree":2,"constant":1.0,
            "monomials":[{"coefficient":3.0,"variables":[0,1]}]}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert!(ok(&reply), "{reply:?}");

    // A series needs at least one coefficient: an error naming the input,
    // not a dropped connection.
    let reply = client.roundtrip(r#"{"op":"eval","plan":"p","inputs":[[],[1,0,0]]}"#);
    assert!(!ok(&reply), "{reply:?}");
    let message = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("input series 0"), "{message}");

    // The same connection keeps serving.
    let reply = client.roundtrip(r#"{"op":"ping"}"#);
    assert!(ok(&reply), "{reply:?}");
    server.shutdown();
}

#[test]
fn wire_compile_with_an_absurd_size_gets_an_error_reply() {
    let service = Arc::new(Service::new(
        Engine::builder().threads(0).build(),
        ServeConfig::default(),
    ));
    let mut server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server);

    // Four billion coefficients per series, or four billion input slots:
    // an error naming the field, not an aborted allocation.
    for (field, line) in [
        (
            "degree",
            r#"{"op":"compile","plan":"deep","num_variables":2,"degree":4000000000,
                "monomials":[{"coefficient":1.0,"variables":[0,1]}]}"#,
        ),
        (
            "num_variables",
            r#"{"op":"compile","plan":"wide","num_variables":4000000000,"degree":2,
                "monomials":[{"coefficient":1.0,"variables":[0,1]}]}"#,
        ),
    ] {
        let reply = client.roundtrip(line.replace('\n', " ").as_str());
        assert!(!ok(&reply), "{reply:?}");
        let message = reply.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains(&format!("'{field}'")), "{message}");
        // The same connection keeps serving.
        let reply = client.roundtrip(r#"{"op":"ping"}"#);
        assert!(ok(&reply), "{reply:?}");
    }
    server.shutdown();
}

#[test]
fn wire_deeply_nested_line_gets_an_error_reply() {
    let service = Arc::new(Service::new(
        Engine::builder().threads(0).build(),
        ServeConfig::default(),
    ));
    let mut server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server);

    // A million open brackets: a structured error, not a stack overflow.
    let reply = client.roundtrip(&"[".repeat(1_000_000));
    assert!(!ok(&reply), "{reply:?}");
    let message = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("nesting deeper than"), "{message}");

    // The connection and the server survive it.
    let reply = client.roundtrip(r#"{"op":"ping"}"#);
    assert!(ok(&reply), "{reply:?}");
    server.shutdown();
}

#[test]
fn wire_over_long_line_gets_an_error_reply_and_the_server_survives() {
    // The server's private line limit (64 MiB before the newline).
    const MAX_LINE_BYTES: usize = 64 << 20;
    let service = Arc::new(Service::new(
        Engine::builder().threads(0).build(),
        ServeConfig::default(),
    ));
    let mut server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server);

    // One byte past the limit, with no newline: the server stops reading
    // there instead of buffering whatever follows.
    let chunk = vec![b'a'; 1 << 20];
    let mut left = MAX_LINE_BYTES + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        client.writer.write_all(&chunk[..n]).expect("write");
        left -= n;
    }
    client.writer.flush().expect("flush");
    let mut reply = String::new();
    client.reader.read_line(&mut reply).expect("read");
    let reply = Json::parse(&reply).expect("reply must be valid json");
    assert!(!ok(&reply), "{reply:?}");
    let message = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains(&MAX_LINE_BYTES.to_string()), "{message}");

    // The rest of that line cannot be resynchronized, so the server closes
    // the connection; a new one is served.
    let mut rest = String::new();
    assert_eq!(client.reader.read_line(&mut rest).expect("read"), 0);
    let reply = Client::connect(&server).roundtrip(r#"{"op":"ping"}"#);
    assert!(ok(&reply), "{reply:?}");
    server.shutdown();
}

#[test]
fn wire_non_utf8_line_gets_an_error_reply() {
    let service = Arc::new(Service::new(
        Engine::builder().threads(0).build(),
        ServeConfig::default(),
    ));
    let mut server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server);
    client
        .writer
        .write_all(b"{\"op\":\"\xff\"}\n")
        .expect("write");
    let mut reply = String::new();
    client.reader.read_line(&mut reply).expect("read");
    let reply = Json::parse(&reply).expect("reply must be valid json");
    assert!(!ok(&reply), "{reply:?}");
    let message = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("UTF-8"), "{message}");

    // The line boundary is intact, so the connection stays usable.
    let reply = client.roundtrip(r#"{"op":"ping"}"#);
    assert!(ok(&reply), "{reply:?}");
    server.shutdown();
}

#[test]
fn wire_shutdown_is_idempotent_and_rebinds() {
    let service = Arc::new(Service::new(
        Engine::builder().threads(0).build(),
        ServeConfig::default(),
    ));
    let mut server = WireServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    server.shutdown();
    server.shutdown(); // second call is a no-op
    drop(server); // drop after shutdown is fine too

    // The port is free again for a fresh server.
    let server = WireServer::bind(service, &addr.to_string());
    assert!(server.is_ok(), "port must be released after shutdown");
}
