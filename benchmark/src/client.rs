//! The analyst's side of the serve protocol: one connection on the real
//! Unix socket, one streamed query at a time.

use crate::Res;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// A query that has not delivered its `+done` by then counts as failed.
pub const QUERY_DEADLINE: Duration = Duration::from_secs(30);

/// One connection to `flor serve`.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

/// A streamed query's reply, with the instants the latency metrics and the
/// trace spans are cut from.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Just before the `stream …` line was written.
    pub sent: Instant,
    /// When the `queued job` acknowledgement was read.
    pub acked: Instant,
    /// When the first `+entry` was read (none for an empty log).
    pub first_entry: Option<Instant>,
    /// When the job's `+done` was read.
    pub done: Instant,
    /// The streamed log: each `+entry` line's payload, in arrival order.
    pub entries: Vec<String>,
    /// The `+done` line's payload (after the job id).
    pub done_line: String,
    /// `+anomaly` lines seen.
    pub anomalies: usize,
}

impl Reply {
    /// `stream` line written → `+done` read, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    /// `stream` line written → first `+entry` read, ms (the full latency
    /// when the log is empty).
    pub fn ttfe_ms(&self) -> f64 {
        (self.first_entry.unwrap_or(self.done) - self.sent).as_secs_f64() * 1e3
    }
}

impl Client {
    /// Connects and consumes the per-connection banner.
    pub fn connect(socket: &Path) -> Res<Client> {
        let writer = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        writer
            .set_read_timeout(Some(QUERY_DEADLINE))
            .map_err(|e| format!("set read timeout: {e}"))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        let mut client = Client {
            reader,
            writer,
            line: String::new(),
        };
        let banner = client.read_line()?;
        if !banner.starts_with("# serving registry ") {
            return Err(format!("unexpected banner {banner:?}"));
        }
        Ok(client)
    }

    /// Reads one line (without its newline) into the reused buffer.
    fn read_line(&mut self) -> Res<&str> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end_matches(['\n', '\r'])),
            Err(e) => Err(format!("read from server: {e}")),
        }
    }

    /// Submits `stream <run_id> <probed_path>` and reads the job's stream
    /// to its `+done`. Any refusal, protocol surprise, I/O error or missed
    /// deadline is an `Err`; the connection should then be discarded.
    pub fn stream(&mut self, run_id: &str, probed_path: &Path) -> Res<Reply> {
        let cmd = format!("stream {run_id} {}\n", probed_path.display());
        let sent = Instant::now();
        self.writer
            .write_all(cmd.as_bytes())
            .map_err(|e| format!("write to server: {e}"))?;
        // "queued job <id>: run …" — anything else is a refusal (admission
        // denied, submit failed, unreadable path).
        let ack = self.read_line()?;
        let id = ack
            .strip_prefix("queued job ")
            .and_then(|rest| rest.split_once(':'))
            .map(|(id, _)| id.to_string())
            .ok_or_else(|| format!("query refused: {ack}"))?;
        let acked = Instant::now();
        let entry_tag = format!("+entry {id} ");
        let done_tag = format!("+done {id} ");
        let mut first_entry = None;
        let mut entries = Vec::new();
        let mut anomalies = 0;
        loop {
            let line = self.read_line()?;
            if let Some(entry) = line.strip_prefix(&entry_tag) {
                first_entry.get_or_insert_with(Instant::now);
                entries.push(entry.to_string());
            } else if let Some(done) = line.strip_prefix(&done_tag) {
                return Ok(Reply {
                    sent,
                    acked,
                    first_entry,
                    done: Instant::now(),
                    entries,
                    done_line: done.to_string(),
                    anomalies,
                });
            } else if line.starts_with("+anomaly ") {
                anomalies += 1;
            } else if !line.starts_with("+progress ") {
                return Err(format!("unexpected line in stream: {line:?}"));
            }
            if sent.elapsed() > QUERY_DEADLINE {
                return Err(format!("no +done within {QUERY_DEADLINE:?}"));
            }
        }
    }

    /// One `runs` round trip on the socket: the verb answers with one line
    /// per cataloged run.
    pub fn runs_round_trip(&mut self, runs: usize) -> Res<()> {
        self.writer
            .write_all(b"runs\n")
            .map_err(|e| format!("write to server: {e}"))?;
        for _ in 0..runs {
            let line = self.read_line()?;
            if !line.starts_with("run ") {
                return Err(format!("unexpected reply to runs: {line:?}"));
            }
        }
        Ok(())
    }
}
