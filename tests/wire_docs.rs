//! The wire table is the truth. `bdi::serve::protocol::WIRE` declares
//! every command's name, binary opcode, HTTP routes and tiers once;
//! this test holds the docs and both live tiers to it:
//!
//! * `docs/PROTOCOL.md`'s command and reply opcode tables and
//!   `docs/HTTP_API.md`'s endpoint table and `GET /` example are
//!   renderings of the table, checked word for word — on a mismatch the
//!   expected Markdown is printed, ready to paste;
//! * `Request::kind()` maps one request of each variant onto every row
//!   exactly once, under the variant's serde name;
//! * a row runs on the readiness loop only on a tier that answers it,
//!   and never has an opcode (the loop leaves binary frames raw);
//! * every row with an opcode round-trips through the frame codec, and
//!   no other row encodes as a frame;
//! * on each tier, `hello` lists exactly the rows that tier answers
//!   plus the non-command features, every HTTP route of those rows
//!   answers `200`, and every other command gets the `router-only` /
//!   `backend-only` error.

use bdi::serve::frame::{decode_request, encode_request, open_frame};
use bdi::serve::protocol::{CommandSpec, Route, Tier, EXTRA_FEATURES, REPLY_OPCODES, WIRE};
use bdi::serve::{
    Client, HttpClient, Request, Response, Router, RouterConfig, Server, ServerConfig,
};
use bdi::types::{Record, RecordId, SourceId, Value};
use std::path::Path;

/// One request of every variant.
fn one_of_each() -> Vec<Request> {
    vec![
        Request::Lookup {
            identifier: "CAM-LUM-00100".into(),
        },
        Request::Filter {
            attribute: "price".into(),
            min: Some(1.0),
            max: None,
            limit: Some(5),
        },
        Request::TopK {
            attribute: "price".into(),
            k: 3,
        },
        Request::Ingest { record: record() },
        Request::IngestBatch {
            records: vec![record()],
        },
        Request::Flush,
        Request::Stats,
        Request::Metrics,
        Request::Shutdown,
        Request::Hello,
        Request::Sync { from: 0 },
        Request::Restore {
            snapshot: None,
            tail: vec![record()],
            position: 1,
        },
        Request::Split {
            shard: 0,
            addrs: vec![],
        },
        Request::Replace {
            shard: 0,
            replica: 1,
            addr: "127.0.0.1:9".into(),
        },
        Request::Trace {
            id: None,
            recent: Some(4),
        },
    ]
}

fn record() -> Record {
    Record::new(RecordId::new(SourceId(3), 7), "Lumetra LX-100")
        .with_identifier("CAM-LUM-00100")
        .with_attr("price", Value::num(229.0))
}

fn code(s: &str) -> String {
    format!("`{s}`")
}

fn opcode(op: u8) -> String {
    code(&format!("{op:#04x}"))
}

/// A Markdown table: header, separator, rows.
fn table(header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut out = line(&header);
    out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        out.push_str(&line(&row));
    }
    out
}

fn command_table() -> String {
    let mark = |spec: &CommandSpec, tier| {
        if spec.tiers.contains(&tier) {
            "✓"
        } else {
            "—"
        }
    };
    let list = |items: Vec<String>| {
        if items.is_empty() {
            "—".to_string()
        } else {
            items.join(", ")
        }
    };
    table(
        &[
            "command",
            "opcode",
            "HTTP",
            "backend",
            "router",
            "on the loop",
        ],
        WIRE.iter().map(|spec| {
            vec![
                code(spec.name),
                spec.opcode.map_or("—".to_string(), opcode),
                list(spec.http.iter().map(|r| code(&r.to_string())).collect()),
                mark(spec, Tier::Backend).to_string(),
                mark(spec, Tier::Router).to_string(),
                list(
                    spec.inline
                        .iter()
                        .map(|&tier| tier_name(tier).to_string())
                        .collect(),
                ),
            ]
        }),
    )
}

fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Backend => "backend",
        Tier::Router => "router",
    }
}

fn reply_opcode_table() -> String {
    table(
        &["opcode", "name"],
        REPLY_OPCODES
            .iter()
            .map(|&(op, name)| vec![opcode(op), code(name)]),
    )
}

/// Every route once, in table order, with every command it carries.
fn endpoint_table() -> String {
    let mut rows: Vec<(Route, Vec<String>)> = Vec::new();
    for spec in &WIRE {
        for route in spec.http {
            match rows.iter_mut().find(|(r, _)| r == route) {
                Some((_, names)) => names.push(code(spec.name)),
                None => rows.push((*route, vec![code(spec.name)])),
            }
        }
    }
    table(
        &["endpoint", "wire command"],
        rows.into_iter()
            .map(|(route, names)| vec![code(&route.to_string()), names.join(" / ")]),
    )
}

fn doc(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The doc holds `block` whole, starting a line and followed by a line
/// break — a table block ends in one already, so a blank line must
/// follow it and no stale row can trail it.
fn assert_rendered(doc_path: &str, block: &str) {
    assert!(
        doc(doc_path).contains(&format!("\n{block}\n")),
        "{doc_path} is out of date with protocol::WIRE; it should contain:\n\n{block}"
    );
}

#[test]
fn protocol_md_tables_are_renderings_of_wire() {
    assert_rendered("docs/PROTOCOL.md", &command_table());
    assert_rendered("docs/PROTOCOL.md", &reply_opcode_table());
    let extras: Vec<String> = EXTRA_FEATURES.iter().map(|f| code(f)).collect();
    let extras = extras.join(", ");
    assert!(
        doc("docs/PROTOCOL.md").contains(&extras),
        "docs/PROTOCOL.md should name the non-command hello features as: {extras}"
    );
}

#[test]
fn http_api_md_endpoints_are_renderings_of_wire() {
    assert_rendered("docs/HTTP_API.md", &endpoint_table());
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let mut http = HttpClient::connect(server.addr()).expect("connect");
    let (status, body) = http.get("/").expect("GET /");
    assert_eq!(status, 200);
    let index = String::from_utf8(body).expect("UTF-8 index");
    assert_rendered("docs/HTTP_API.md", &format!("```json\n{index}\n```"));
    drop(http);
    server.shutdown();
}

#[test]
fn kind_maps_every_variant_to_its_own_row() {
    let mut rows: Vec<usize> = one_of_each().iter().map(Request::row).collect();
    rows.sort_unstable();
    assert_eq!(rows, (0..WIRE.len()).collect::<Vec<_>>());
    for request in one_of_each() {
        let serde_name = match serde_json::to_value(&request).expect("requests serialize") {
            serde_json::Value::String(name) => name,
            serde_json::Value::Object(map) => map.into_keys().next().expect("one key"),
            other => panic!("unexpected request shape {other:?}"),
        };
        assert_eq!(request.kind(), serde_name);
        assert_eq!(WIRE[request.row()].name, serde_name);
    }
}

#[test]
fn inline_rows_are_served_by_their_tier_and_have_no_opcode() {
    for spec in &WIRE {
        for tier in spec.inline {
            assert!(
                spec.tiers.contains(tier),
                "{} runs inline on a tier that does not answer it: {tier:?}",
                spec.name
            );
        }
        // the readiness loop never decodes a binary frame, so an inline
        // row with an opcode would silently run on the pool
        assert!(
            spec.inline.is_empty() || spec.opcode.is_none(),
            "{} runs inline but has an opcode",
            spec.name
        );
    }
}

#[test]
fn rows_with_an_opcode_round_trip_through_frames() {
    for request in one_of_each() {
        let spec = &WIRE[request.row()];
        let mut buf = Vec::new();
        let framed = encode_request(&mut buf, &request);
        assert_eq!(framed, spec.opcode.is_some(), "{}", spec.name);
        let Some(op) = spec.opcode else { continue };
        let (wire_op, payload) = open_frame(&buf).expect("own frame opens");
        assert_eq!(wire_op, op, "{} frames under its opcode", spec.name);
        let back = decode_request(wire_op, payload).expect("own frame decodes");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&request).unwrap(),
            "{} changed across the frame round trip",
            spec.name
        );
    }
}

/// A request path for `route` with every placeholder filled in: `:id`
/// with a live identifier or trace id, each query parameter with a
/// value that parses.
fn sample_path(spec: &CommandSpec, route: &Route, identifier: &str, trace: u64) -> String {
    let id = match spec.name {
        "lookup" => identifier.to_string(),
        _ => format!("{trace:016x}"),
    };
    let mut path = route.path.replace(":id", &id);
    let params: Vec<String> = route
        .query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let key = p.trim_end_matches('=');
            let value = match key {
                "attribute" => "price",
                "min" => "0",
                "max" => "100000",
                "limit" | "k" | "n" => "5",
                other => panic!("no sample value for query parameter '{other}'"),
            };
            format!("{key}={value}")
        })
        .collect();
    if !params.is_empty() {
        path = format!("{path}?{}", params.join("&"));
    }
    path
}

/// Hold one live tier to the table: its `hello`, its routes, and its
/// answer to the other tier's commands. Shuts the tier down (through
/// its own `POST /shutdown` route).
fn check_tier(tier: Tier, addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("connect");
    let (_, features) = client.hello().expect("hello");
    let expected: Vec<&str> = WIRE
        .iter()
        .filter(|spec| spec.tiers.contains(&tier))
        .map(|spec| spec.name)
        .chain(EXTRA_FEATURES)
        .collect();
    assert_eq!(features, expected, "{tier:?} hello");

    let foreign = match tier {
        Tier::Backend => "router-only",
        Tier::Router => "backend-only",
    };
    for request in one_of_each() {
        let spec = &WIRE[request.row()];
        if spec.tiers.contains(&tier) {
            continue;
        }
        match client.call(&request).expect("answered") {
            Response::Error { message } => assert!(
                message.starts_with(foreign),
                "{tier:?} answered {} with {message:?}",
                spec.name
            ),
            other => panic!("{tier:?} served {}: {other:?}", spec.name),
        }
    }

    let trace = 0x00000000c0ffee00u64;
    let body = serde_json::to_string(&record()).expect("records serialize");
    let mut http = HttpClient::connect(addr).expect("connect");
    http.set_trace_header(Some(format!("{trace:016x}")));
    http.ingest(&record()).expect("traced ingest");
    http.set_trace_header(None);
    http.flush().expect("flush");
    let mut routes: Vec<(&CommandSpec, &Route)> = WIRE
        .iter()
        .filter(|spec| spec.tiers.contains(&tier))
        .flat_map(|spec| spec.http.iter().map(move |route| (spec, route)))
        .collect();
    // the tier answers shutdown, then closes
    routes.sort_by_key(|(spec, _)| spec.name == "shutdown");
    for (spec, route) in routes {
        let path = sample_path(spec, route, "CAM-LUM-00100", trace);
        let (status, reply) = match route.method {
            "POST" if route.path == "/ingest" => http.post(&path, body.as_bytes()),
            "POST" => http.post(&path, b""),
            _ => http.get(&path),
        }
        .expect("HTTP round trip");
        assert_eq!(
            status,
            200,
            "{tier:?} {} {path} ({} route): {}",
            route.method,
            spec.name,
            String::from_utf8_lossy(&reply)
        );
    }
}

#[test]
fn each_tier_serves_exactly_its_rows() {
    let backend = Server::start(ServerConfig::default()).expect("backend starts");
    let router = Router::start(RouterConfig {
        backends: vec![backend.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router starts");
    check_tier(Tier::Router, router.addr());
    router.wait();
    check_tier(Tier::Backend, backend.addr());
    backend.wait();
}
