//! The load generator: closed-loop connections, each keeping a fixed window
//! of requests outstanding, drawing whole rounds of the mix until the phase
//! ends. A connection finishes the round it started, so every run attempts
//! whole rounds.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cqt_service::net::frame::{write_frame, FrameBuffer, DEFAULT_MAX_FRAME_LEN};
use cqt_service::net::{Request, Response};

use crate::inputs::{Inputs, Op};

/// How one request ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status {
    Answered,
    Shed,
    Error(String),
    Missing,
}

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub op: Op,
    pub status: Status,
    /// When the response arrived.
    pub done: Instant,
    /// Client send to client receive.
    pub latency_ns: u64,
    pub queue_ns: u64,
    pub exec_ns: u64,
    pub total_ns: u64,
    /// One fingerprint per member query.
    pub fingerprints: Vec<u64>,
}

/// Where connections draw their rounds from.
pub enum Rounds<'a> {
    /// Rounds of the measured mix until the deadline.
    Until(Instant),
    /// A fixed op list, handed out in chunks.
    Fixed(&'a [Op]),
}

const CHUNK: usize = 32;

/// A framed connection to the server.
pub struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A response that never comes ends the run as a failure instead of
        // hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            frames: FrameBuffer::new(DEFAULT_MAX_FRAME_LEN),
        })
    }

    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        write_frame(&mut self.stream, &request.encode())
    }

    pub fn recv(&mut self) -> std::io::Result<Response> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.frames.next_frame() {
                Ok(Some(payload)) => {
                    return Response::decode(&payload).map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.frames.push(&chunk[..n]);
        }
    }
}

/// Drives `connections` connections with `window` requests outstanding
/// each. Returns every sample and the moment the connections started.
pub fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    rounds: Rounds<'_>,
    connections: usize,
    window: usize,
) -> std::io::Result<(Vec<Sample>, Instant)> {
    let next = AtomicUsize::new(0);
    let take = || -> Option<Vec<Op>> {
        match &rounds {
            Rounds::Until(deadline) => {
                if Instant::now() >= *deadline {
                    return None;
                }
                Some(inputs.round(next.fetch_add(1, Ordering::Relaxed)))
            }
            Rounds::Fixed(ops) => {
                let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                (start < ops.len()).then(|| ops[start..(start + CHUNK).min(ops.len())].to_vec())
            }
        }
    };
    let all = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| -> std::io::Result<()> {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                let take = &take;
                let all = &all;
                scope.spawn(move || -> std::io::Result<()> {
                    let samples = connection(addr, inputs, take, window)?;
                    all.lock().expect("sample lock").extend(samples);
                    Ok(())
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("client thread panicked")?;
        }
        Ok(())
    })?;
    Ok((all.into_inner().expect("sample lock"), start))
}

fn connection(
    addr: SocketAddr,
    inputs: &Inputs,
    take: &dyn Fn() -> Option<Vec<Op>>,
    window: usize,
) -> std::io::Result<Vec<Sample>> {
    let mut conn = Conn::connect(addr)?;
    let mut samples = Vec::new();
    let mut pending: std::collections::VecDeque<Op> = Default::default();
    let mut inflight: Vec<(u64, Op, Instant)> = Vec::with_capacity(window);
    let mut next_id = 1u64;
    let mut exhausted = false;
    loop {
        while inflight.len() < window {
            if pending.is_empty() && !exhausted {
                match take() {
                    Some(ops) => pending.extend(ops),
                    None => exhausted = true,
                }
            }
            let Some(op) = pending.pop_front() else { break };
            let id = next_id;
            next_id += 1;
            let sent = Instant::now();
            conn.send(&inputs.request(op, id))?;
            inflight.push((id, op, sent));
        }
        if inflight.is_empty() {
            return Ok(samples);
        }
        let response = match conn.recv() {
            Ok(response) => response,
            Err(_) => {
                // The connection is gone: every outstanding request and the
                // rest of the started round count as missing.
                for (_, op, _) in inflight.drain(..) {
                    samples.push(missing(op));
                }
                samples.extend(pending.drain(..).map(missing));
                return Ok(samples);
            }
        };
        let received = Instant::now();
        let id = response.id();
        let Some(pos) = inflight.iter().position(|(i, _, _)| *i == id) else {
            continue;
        };
        let (_, op, sent) = inflight.swap_remove(pos);
        let latency_ns = received.duration_since(sent).as_nanos() as u64;
        let mut sample = Sample {
            op,
            status: Status::Answered,
            done: received,
            latency_ns,
            queue_ns: 0,
            exec_ns: 0,
            total_ns: 0,
            fingerprints: Vec::new(),
        };
        match response {
            Response::Answer {
                fingerprint,
                queue_ns,
                exec_ns,
                total_ns,
                ..
            } => {
                sample.fingerprints.push(fingerprint);
                (sample.queue_ns, sample.exec_ns, sample.total_ns) = (queue_ns, exec_ns, total_ns);
            }
            Response::BatchAnswer {
                fingerprints,
                queue_ns,
                exec_ns,
                total_ns,
                ..
            } => {
                sample.fingerprints = fingerprints;
                (sample.queue_ns, sample.exec_ns, sample.total_ns) = (queue_ns, exec_ns, total_ns);
            }
            Response::Shed { .. } => sample.status = Status::Shed,
            Response::Error { message, .. } => sample.status = Status::Error(message),
            other => sample.status = Status::Error(format!("unexpected response {other:?}")),
        }
        if sample.status == Status::Answered && sample.queue_ns + sample.exec_ns != sample.total_ns
        {
            sample.status = Status::Error("queue_ns + exec_ns != total_ns".to_string());
        }
        samples.push(sample);
    }
}

fn missing(op: Op) -> Sample {
    Sample {
        op,
        status: Status::Missing,
        done: Instant::now(),
        latency_ns: u64::MAX,
        queue_ns: 0,
        exec_ns: 0,
        total_ns: 0,
        fingerprints: Vec::new(),
    }
}

/// The server's cumulative counters, fetched over the wire.
pub fn server_stats(addr: SocketAddr) -> std::io::Result<Response> {
    let mut conn = Conn::connect(addr)?;
    conn.send(&Request::Stats { id: 0 })?;
    conn.recv()
}
