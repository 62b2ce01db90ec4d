//! The live introspection endpoint of `pearl-serve`: a hand-rolled
//! HTTP/1.1 server over [`std::net::TcpListener`], zero dependencies.
//!
//! The daemon loop is the only writer: each iteration it renders its
//! state into a [`StatusBoard`] (two pre-built strings behind one
//! mutex), so the accept loop never touches the journal, the spool or
//! any lock the daemon holds across I/O — a scrape can never slow a
//! dispatch wave down by more than one string clone. Three routes:
//!
//! - `GET /status` — the daemon state machine, per-job journal rows,
//!   queue depths and wave/retry/quarantine counts as one JSON object;
//! - `GET /metrics` — the same counters in the Prometheus text
//!   exposition (version 0.0.4), rendered by
//!   [`pearl_telemetry::prometheus_exposition`];
//! - `GET /progress?after=SEQ` — the tail of `progress.jsonl` as
//!   newline-delimited JSON, every event with `seq > SEQ` (all events
//!   when `after` is omitted; unstamped legacy `seq 0` lines only show
//!   on a full read). Tail-followers poll with their last seen seq and
//!   detect drops by seq gaps.
//!
//! The server is opt-in (`pearl-serve --listen ADDR`) and read-only: no
//! route mutates the spool, so exposing it costs nothing in the
//! determinism story.

use pearl_telemetry::{replay_progress, Storage};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// How long a handler waits on a slow or silent client before dropping
/// the connection. The board makes responses cheap; this bounds the
/// damage of a stuck reader.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Default)]
struct Board {
    status_json: String,
    metrics_text: String,
}

/// The daemon's published view: pre-rendered `/status` JSON and
/// `/metrics` exposition text behind one mutex. Cloning shares the
/// board (it is an `Arc`), so the daemon publishes into the same board
/// the server thread reads from.
#[derive(Debug, Clone, Default)]
pub struct StatusBoard(Arc<Mutex<Board>>);

impl StatusBoard {
    /// An empty board; `/status` and `/metrics` serve placeholders
    /// until the daemon's first publish.
    pub fn new() -> StatusBoard {
        StatusBoard::default()
    }

    /// Publishes both documents atomically (one lock, so a scrape never
    /// sees a status newer than its metrics or vice versa).
    pub fn publish(&self, status_json: String, metrics_text: String) {
        let mut board = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        board.status_json = status_json;
        board.metrics_text = metrics_text;
    }

    /// The last published `/status` document (a JSON placeholder before
    /// the first publish).
    pub fn status_json(&self) -> String {
        let board = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if board.status_json.is_empty() {
            "{\"state\":\"starting\"}".to_string()
        } else {
            board.status_json.clone()
        }
    }

    /// The last published `/metrics` exposition (empty — a valid
    /// exposition — before the first publish).
    pub fn metrics_text(&self) -> String {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).metrics_text.clone()
    }
}

/// A running introspection server: the accept-loop thread plus the
/// handle needed to stop it cleanly.
#[derive(Debug)]
pub struct IntrospectionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl IntrospectionServer {
    /// Starts the accept loop on `listener` (bind it first — binding in
    /// the caller surfaces address errors before the daemon starts).
    /// `progress` is the spool's `progress.jsonl`, read through
    /// `storage` per `/progress` request so the route always reflects
    /// the file, not a cache.
    pub fn start(
        listener: TcpListener,
        board: StatusBoard,
        progress: PathBuf,
        storage: Arc<dyn Storage>,
    ) -> std::io::Result<IntrospectionServer> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let handle =
            std::thread::Builder::new().name("pearl-serve-http".into()).spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Serve inline: the routes are string clones plus one
                    // bounded file read, and a daemon's scrape cadence is
                    // seconds — a handler pool would be pure ceremony.
                    let _ = handle_connection(stream, &board, &progress, storage.as_ref());
                }
            })?;
        Ok(IntrospectionServer { addr, stop, handle: Some(handle) })
    }

    /// The actually-bound address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. A self-connection
    /// unblocks the blocking `accept`.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads one request, routes it, writes one response, closes.
fn handle_connection(
    stream: TcpStream,
    board: &StatusBoard,
    progress: &std::path::Path,
    storage: &dyn Storage,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers (ignored — every route is GET with no body).
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut stream = reader.into_inner();

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(&mut stream, "405 Method Not Allowed", "text/plain", "GET only\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/status" => respond(&mut stream, "200 OK", "application/json", &board.status_json()),
        "/metrics" => {
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &board.metrics_text())
        }
        "/progress" => match progress_tail(storage, progress, query) {
            Ok(body) => respond(&mut stream, "200 OK", "application/x-ndjson", &body),
            Err(reason) => respond(&mut stream, "400 Bad Request", "text/plain", &reason),
        },
        _ => respond(&mut stream, "404 Not Found", "text/plain", "unknown route\n"),
    }
}

/// Renders the progress events with `seq > after` as NDJSON. An absent
/// stream reads as empty — a daemon that has not appended yet is not an
/// error.
fn progress_tail(
    storage: &dyn Storage,
    progress: &std::path::Path,
    query: &str,
) -> Result<String, String> {
    let mut after = 0u64;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("after", v)) => {
                after = v.parse().map_err(|_| format!("after={v:?} is not an integer\n"))?;
            }
            _ => return Err(format!("unknown query parameter {pair:?}\n")),
        }
    }
    if !storage.exists(progress) {
        return Ok(String::new());
    }
    let replay = replay_progress(storage, progress).map_err(|e| format!("{e}\n"))?;
    let mut body = String::new();
    for event in &replay.events {
        if after == 0 || event.seq > after {
            body.push_str(&event.to_json().to_string());
            body.push('\n');
        }
    }
    Ok(body)
}

/// Writes a minimal HTTP/1.1 response and closes the connection.
fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_telemetry::{OsStorage, ProgressEvent, ProgressLog};
    use std::io::Read;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pearl-serve-http-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("full response");
        (head.to_string(), body.to_string())
    }

    fn start(dir: &std::path::Path) -> (IntrospectionServer, StatusBoard, PathBuf) {
        let board = StatusBoard::new();
        let progress = dir.join("progress.jsonl");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = IntrospectionServer::start(
            listener,
            board.clone(),
            progress.clone(),
            Arc::new(OsStorage),
        )
        .unwrap();
        (server, board, progress)
    }

    #[test]
    fn status_and_metrics_serve_the_published_documents() {
        let dir = scratch("status");
        let (server, board, _) = start(&dir);
        let (head, body) = get(server.addr(), "/status");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("starting"), "placeholder before first publish: {body}");

        board.publish(
            "{\"state\":\"running\",\"completed\":3}".into(),
            "# TYPE serve_completed counter\nserve_completed 3\n".into(),
        );
        let (head, body) = get(server.addr(), "/status");
        assert!(head.contains("application/json"), "{head}");
        assert_eq!(body, "{\"state\":\"running\",\"completed\":3}");
        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        pearl_telemetry::validate_exposition(&body).unwrap();
        assert!(body.contains("serve_completed 3\n"));
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_tail_filters_by_seq_and_rejects_bad_queries() {
        let dir = scratch("progress");
        let (server, _, progress) = start(&dir);
        let log = ProgressLog::resuming_after(0);
        for (job, kind) in [("a", "accepted"), ("a", "started"), ("a", "completed")] {
            log.append(&OsStorage, &progress, &mut ProgressEvent::new(job, kind)).unwrap();
        }
        let (_, body) = get(server.addr(), "/progress");
        assert_eq!(body.lines().count(), 3, "{body}");
        let (_, body) = get(server.addr(), "/progress?after=2");
        assert_eq!(body.lines().count(), 1, "{body}");
        assert!(body.contains("\"seq\":\"3\"") && body.contains("completed"), "{body}");
        let (head, _) = get(server.addr(), "/progress?after=soon");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        let (head, _) = get(server.addr(), "/progress?until=9");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_progress_unknown_routes_and_bad_methods() {
        let dir = scratch("routes");
        let (server, _, _) = start(&dir);
        let (head, body) = get(server.addr(), "/progress");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.is_empty(), "absent stream reads as empty");
        let (head, _) = get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /status HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
