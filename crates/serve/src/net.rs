//! TCP and stdin front ends: both speak the same line protocol through
//! the same bounded reader, differing only in transport.

use crate::error::ServeError;
use crate::protocol::{
    parse_request, render_error, BoundedLineReader, LineError, Request, DEFAULT_MAX_LINE,
};
use crate::server::Server;
use qse_util::mailbox::{unbounded, RecvTimeoutError, Sender};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Transport bounds — the limits source rule R7 exists to keep honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Per-line byte cap.
    pub max_line: usize,
    /// Socket read deadline; an idle connection is dropped after it.
    pub read_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_line: DEFAULT_MAX_LINE,
            read_timeout: Duration::from_secs(300),
        }
    }
}

/// Accept loop: one reader thread per connection, responses written by
/// a paired writer thread as jobs complete (submission order and
/// completion order are decoupled — responses carry the job id). Runs
/// until the listener errors.
pub fn serve_tcp(server: Arc<Server>, listener: TcpListener, net: NetConfig) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        let server = Arc::clone(&server);
        let _ = thread::Builder::new()
            .name("qse-serve-conn".to_string())
            .spawn(move || handle_conn(&server, stream, net));
    }
}

fn handle_conn(server: &Arc<Server>, stream: TcpStream, net: NetConfig) {
    if stream.set_read_timeout(Some(net.read_timeout)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = unbounded::<String>();
    let writer = thread::Builder::new()
        .name("qse-serve-conn-writer".to_string())
        .spawn(move || {
            let mut out = write_half;
            // Senders: the reader below plus one clone per in-flight
            // job; Disconnected ⇔ reader done and every job answered.
            loop {
                match rx.recv_timeout(Duration::from_secs(3600)) {
                    Ok(line) => {
                        if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err()
                        {
                            return;
                        }
                        let _ = out.flush();
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => return,
                }
            }
        });
    read_requests(server, stream, net.max_line, &tx);
    drop(tx);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
}

/// Shared request pump: reads bounded lines from `input`, submits jobs,
/// and queues every response line on `out`. Returns at EOF or on a
/// transport error (timeout, overlong line) after queueing a rendered
/// error line.
fn read_requests<R: Read>(server: &Arc<Server>, input: R, max_line: usize, out: &Sender<String>) {
    let mut reader = BoundedLineReader::new(input, max_line);
    loop {
        match reader.next_line() {
            Ok(None) => return,
            Ok(Some(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(server, &line, out);
            }
            Err(e @ (LineError::TooLong { .. } | LineError::Timeout)) => {
                let err = ServeError::BadRequest {
                    detail: e.to_string(),
                };
                let _ = out.send(render_error(None, &err));
                return;
            }
            Err(_) => return,
        }
    }
}

fn handle_line(server: &Arc<Server>, line: &str, out: &Sender<String>) {
    match parse_request(line) {
        Err(err) => {
            let _ = out.send(render_error(None, &err));
        }
        Ok(Request::Stats) => {
            let _ = out.send(server.stats().render());
        }
        Ok(Request::Submit(spec)) => {
            let id = spec.id.clone();
            let reply_tx = out.clone();
            let outcome = server.submit_with(
                spec,
                Box::new(move |resp| {
                    let line = match resp {
                        Ok(result) => crate::protocol::render_result(&result),
                        Err(err) => render_error(Some(&err.id), &err.error),
                    };
                    let _ = reply_tx.send(line);
                }),
            );
            if let Err(err) = outcome {
                let _ = out.send(render_error(Some(&id), &err));
            }
        }
    }
}

/// Stdin front end: reads request lines from standard input, writes
/// response lines to standard output as jobs complete, returns once
/// stdin hits EOF and every job has been answered.
pub fn serve_stdin(server: &Arc<Server>, max_line: usize) {
    let (tx, rx) = unbounded::<String>();
    let writer = thread::Builder::new()
        .name("qse-serve-stdout".to_string())
        .spawn(move || {
            let stdout = std::io::stdout();
            loop {
                match rx.recv_timeout(Duration::from_secs(3600)) {
                    Ok(line) => {
                        let mut out = stdout.lock();
                        let _ = out.write_all(line.as_bytes());
                        let _ = out.write_all(b"\n");
                        let _ = out.flush();
                    }
                    Err(_) => return,
                }
            }
        });
    read_requests(server, std::io::stdin(), max_line, &tx);
    drop(tx);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;

    /// End-to-end over a real socket: submit, read the response line,
    /// then ask for stats on the same connection.
    #[test]
    fn tcp_round_trip_submit_and_stats() {
        let server = Arc::new(Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        {
            let server = Arc::clone(&server);
            thread::spawn(move || serve_tcp(server, listener, NetConfig::default()));
        }

        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        conn.write_all(
            b"{\"op\":\"submit\",\"id\":\"t1\",\"shots\":10,\"seed\":3,\
              \"circuit\":{\"name\":\"ghz\",\"qubits\":4}}\n",
        )
        .unwrap();
        let mut reader = BoundedLineReader::new(conn.try_clone().unwrap(), 1 << 16);
        let line = reader.next_line().unwrap().expect("a response line");
        let json = qse_util::json::Json::parse(&line).unwrap();
        assert_eq!(
            json.get("id").and_then(qse_util::json::Json::as_str),
            Some("t1")
        );
        assert_eq!(
            json.get("ok").and_then(qse_util::json::Json::as_bool),
            Some(true)
        );
        // GHZ: only all-zeros and all-ones outcomes.
        let counts = json
            .get("counts")
            .and_then(qse_util::json::Json::as_obj)
            .unwrap();
        for (k, _) in counts {
            assert!(k == "0" || k == "15", "unexpected outcome {k}");
        }

        conn.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let line = reader.next_line().unwrap().expect("a stats line");
        let json = qse_util::json::Json::parse(&line).unwrap();
        assert_eq!(
            json.get("completed").and_then(qse_util::json::Json::as_u64),
            Some(1)
        );

        // Malformed input gets a typed error, not a dropped connection.
        conn.write_all(b"{\"op\":\"warp\"}\n").unwrap();
        let line = reader.next_line().unwrap().expect("an error line");
        let json = qse_util::json::Json::parse(&line).unwrap();
        assert_eq!(
            json.get("code").and_then(qse_util::json::Json::as_str),
            Some("bad_request")
        );
        drop(conn);
        server.shutdown();
    }

    /// Lines that parse but that the admission rule refuses: the refusal
    /// comes from `Server::submit` as a `BadRequest`, and a front end
    /// answers it with the job's id.
    #[test]
    fn admission_refusals_come_from_submit_with_the_job_id() {
        let server = Arc::new(Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        let (tx, rx) = qse_util::mailbox::unbounded();
        for line in [
            r#"{"op":"submit","id":"x","ranks":3,"circuit":{"name":"qft","qubits":5}}"#,
            r#"{"op":"submit","id":"x","basis":64,"circuit":{"qubits":2,"gates":[]}}"#,
        ] {
            let Ok(Request::Submit(spec)) = parse_request(line) else {
                panic!("{line} parses")
            };
            let err = server.submit(spec).err();
            assert!(
                matches!(err, Some(ServeError::BadRequest { .. })),
                "{line} → {err:?}"
            );
            handle_line(&server, line, &tx);
            let reply = rx.recv_timeout(Duration::from_secs(60)).expect("a reply");
            let json = qse_util::json::Json::parse(&reply).unwrap();
            assert_eq!(
                json.get("id").and_then(|v| v.as_str()),
                Some("x"),
                "{reply}"
            );
            assert_eq!(
                json.get("code").and_then(|v| v.as_str()),
                Some("bad_request"),
                "{reply}"
            );
        }
        server.shutdown();
    }
}
