//! Client-side wire plumbing: one blocking connection per generator thread.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use mda_server::protocol::{
    decode_reply, read_frame, Reply, Request, ResponseBody, DEFAULT_MAX_FRAME_BYTES,
};

use crate::gen::frame;

/// How long a reader waits for a frame before declaring the server stuck.
pub const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// One connection to the server.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    /// Connects with Nagle off and the read timeout set.
    ///
    /// # Errors
    ///
    /// Any connection failure, as text.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            next_id: 1,
        })
    }

    /// Takes the next request id.
    pub fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Writes one pre-built frame.
    ///
    /// # Errors
    ///
    /// Transport failures, as text.
    pub fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.writer.write_all(frame).map_err(|e| e.to_string())
    }

    /// Reads and decodes one reply.
    ///
    /// # Errors
    ///
    /// Transport, framing or decoding failures, as text.
    pub fn recv(&mut self) -> Result<Reply, String> {
        recv_from(&mut self.reader)
    }

    /// Issues one request and waits for its reply; an error reply is an
    /// error.
    ///
    /// # Errors
    ///
    /// Transport failures, a mismatched id, or a server error reply.
    pub fn call(&mut self, req: Request) -> Result<ResponseBody, String> {
        let id = self.take_id();
        self.send(&frame(id, req))?;
        let reply = self.recv()?;
        if reply.id != id {
            return Err(format!("reply id {} for request {id}", reply.id));
        }
        match reply.body {
            ResponseBody::Error { code, message } => Err(format!("{code}: {message}")),
            body => Ok(body),
        }
    }

    /// A second handle on the same socket, for a reader thread.
    ///
    /// # Errors
    ///
    /// When the socket cannot be duplicated.
    pub fn reader_handle(&self) -> Result<BufReader<TcpStream>, String> {
        Ok(BufReader::new(
            self.writer.try_clone().map_err(|e| e.to_string())?,
        ))
    }
}

/// Reads one reply from a reader handle (see [`Conn::reader_handle`]).
///
/// # Errors
///
/// Transport, framing or decoding failures, as text.
pub fn recv_from(reader: &mut BufReader<TcpStream>) -> Result<Reply, String> {
    let payload = read_frame(reader, DEFAULT_MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
    decode_reply(&payload).map_err(|e| e.to_string())
}
