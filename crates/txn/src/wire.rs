//! The length-framed client/server protocol — the code-shipping flow of
//! `examples/code_shipping.rs` promoted to a wire format.
//!
//! Every frame is `u32` little-endian payload length, then the payload:
//! one kind byte followed by varint-encoded fields (the store's own
//! varint module, so the encoding matches PTML/WAL idiom). Strings and
//! byte strings are length-prefixed; values carry a one-byte tag.
//!
//! Frames are capped at 16 MiB — a frame length beyond the cap is a
//! protocol error, not an allocation.
//!
//! The `serve.read` / `serve.write` failpoints (keyed by connection id)
//! fire inside [`read_frame`]/[`write_frame`] so the fault matrix can
//! sever a session at any frame boundary.

use std::io::{Read, Write};

use tml_store::failpoint;
use tml_store::varint::{self, Reader};

/// Hard ceiling on one frame's payload.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// The most [`read_frame`] allocates before the payload's bytes arrive.
const READ_CHUNK: usize = 64 * 1024;

/// A wire value: the immediate subset of the VM's runtime values that
/// crosses the protocol (references and closures ship as PTML instead).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unit.
    Unit,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// Immutable string.
    Str(String),
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Open an explicit transaction for this session.
    Begin,
    /// Commit the session's transaction.
    Commit,
    /// Abort the session's transaction.
    Abort,
    /// Ship a function: PTML bytes, installed under `name` (a global and
    /// a persistent root) after relinking against the server's globals.
    Ship {
        /// Global/root name to install under.
        name: String,
        /// Portable TML bytes.
        ptml: Vec<u8>,
    },
    /// Call a global by name.
    Call {
        /// Fully qualified global name.
        name: String,
        /// Immediate arguments.
        args: Vec<Value>,
    },
    /// Reflectively optimize a global on the server (outside any
    /// transaction; the optimization cache is derived data).
    Optimize {
        /// Fully qualified global name.
        name: String,
    },
    /// Close this session (the server aborts an open transaction).
    Bye,
    /// Ask the server to shut down gracefully (drain, checkpoint, exit).
    Shutdown,
}

/// Typed error category in an [`Response::Err`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Malformed or out-of-order request.
    Proto,
    /// A TML-level exception escaped the call.
    Exception,
    /// The transaction was aborted (deadlock victim, lock timeout,
    /// injected fault). Retryable: begin a new transaction and re-run.
    Aborted,
    /// Unknown global / unresolvable name.
    Unresolved,
    /// Server-side failure (IO, store poisoned).
    Server,
}

impl ErrCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrCode::Proto => 1,
            ErrCode::Exception => 2,
            ErrCode::Aborted => 3,
            ErrCode::Unresolved => 4,
            ErrCode::Server => 5,
        }
    }

    fn from_byte(b: u8) -> Option<ErrCode> {
        Some(match b {
            1 => ErrCode::Proto,
            2 => ErrCode::Exception,
            3 => ErrCode::Aborted,
            4 => ErrCode::Unresolved,
            5 => ErrCode::Server,
            _ => return None,
        })
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Request done, no value.
    Ok,
    /// Request done, with a value.
    Val(Value),
    /// Request failed.
    Err {
        /// Category (drives client-side retry).
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
    /// The server acknowledges session close.
    Bye,
}

const REQ_PING: u8 = 1;
const REQ_BEGIN: u8 = 2;
const REQ_COMMIT: u8 = 3;
const REQ_ABORT: u8 = 4;
const REQ_SHIP: u8 = 5;
const REQ_CALL: u8 = 6;
const REQ_OPTIMIZE: u8 = 7;
const REQ_BYE: u8 = 8;
const REQ_SHUTDOWN: u8 = 9;

const RSP_OK: u8 = 1;
const RSP_VAL: u8 = 2;
const RSP_ERR: u8 = 3;
const RSP_BYE: u8 = 4;

const VAL_UNIT: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_STR: u8 = 3;

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Unit => out.push(VAL_UNIT),
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(n) => {
            out.push(VAL_INT);
            varint::put_i64(out, *n);
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            varint::put_str(out, s);
        }
    }
}

fn get_value(r: &mut Reader) -> Result<Value, WireError> {
    Ok(match r.byte()? {
        VAL_UNIT => Value::Unit,
        VAL_BOOL => Value::Bool(r.byte()? != 0),
        VAL_INT => Value::Int(r.i64()?),
        VAL_STR => Value::Str(r.str()?.to_string()),
        t => return Err(WireError::Malformed(format!("bad value tag {t}"))),
    })
}

/// Encode a request payload (no frame header).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Ping => out.push(REQ_PING),
        Request::Begin => out.push(REQ_BEGIN),
        Request::Commit => out.push(REQ_COMMIT),
        Request::Abort => out.push(REQ_ABORT),
        Request::Ship { name, ptml } => {
            out.push(REQ_SHIP);
            varint::put_str(&mut out, name);
            varint::put_bytes(&mut out, ptml);
        }
        Request::Call { name, args } => {
            out.push(REQ_CALL);
            varint::put_str(&mut out, name);
            varint::put_u64(&mut out, args.len() as u64);
            for a in args {
                put_value(&mut out, a);
            }
        }
        Request::Optimize { name } => {
            out.push(REQ_OPTIMIZE);
            varint::put_str(&mut out, name);
        }
        Request::Bye => out.push(REQ_BYE),
        Request::Shutdown => out.push(REQ_SHUTDOWN),
    }
    out
}

/// Decode a request payload.
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(buf);
    let req = match r.byte()? {
        REQ_PING => Request::Ping,
        REQ_BEGIN => Request::Begin,
        REQ_COMMIT => Request::Commit,
        REQ_ABORT => Request::Abort,
        REQ_SHIP => Request::Ship {
            name: r.str()?.to_string(),
            ptml: r.byte_string()?.to_vec(),
        },
        REQ_CALL => {
            let name = r.str()?.to_string();
            let n = r.len()?;
            if n > buf.len() {
                return Err(WireError::Malformed(format!("arg count {n} exceeds frame")));
            }
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_value(&mut r)?);
            }
            Request::Call { name, args }
        }
        REQ_OPTIMIZE => Request::Optimize {
            name: r.str()?.to_string(),
        },
        REQ_BYE => Request::Bye,
        REQ_SHUTDOWN => Request::Shutdown,
        t => return Err(WireError::Malformed(format!("bad request kind {t}"))),
    };
    if !r.is_at_end() {
        return Err(WireError::Malformed("trailing request bytes".into()));
    }
    Ok(req)
}

/// Encode a response payload (no frame header).
pub fn encode_response(rsp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match rsp {
        Response::Ok => out.push(RSP_OK),
        Response::Val(v) => {
            out.push(RSP_VAL);
            put_value(&mut out, v);
        }
        Response::Err { code, msg } => {
            out.push(RSP_ERR);
            out.push(code.to_byte());
            varint::put_str(&mut out, msg);
        }
        Response::Bye => out.push(RSP_BYE),
    }
    out
}

/// Decode a response payload.
pub fn decode_response(buf: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(buf);
    let rsp = match r.byte()? {
        RSP_OK => Response::Ok,
        RSP_VAL => Response::Val(get_value(&mut r)?),
        RSP_ERR => {
            let code = ErrCode::from_byte(r.byte()?)
                .ok_or_else(|| WireError::Malformed("bad error code".into()))?;
            Response::Err {
                code,
                msg: r.str()?.to_string(),
            }
        }
        RSP_BYE => Response::Bye,
        t => return Err(WireError::Malformed(format!("bad response kind {t}"))),
    };
    if !r.is_at_end() {
        return Err(WireError::Malformed("trailing response bytes".into()));
    }
    Ok(rsp)
}

/// Protocol failures.
#[derive(Debug)]
pub enum WireError {
    /// Transport-level failure (includes clean EOF between frames).
    Io(std::io::Error),
    /// Undecodable payload.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire io: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<varint::DecodeError> for WireError {
    fn from(e: varint::DecodeError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

/// Read one frame. `conn` keys the `serve.read` failpoint.
pub fn read_frame(r: &mut impl Read, conn: u64) -> Result<Vec<u8>, WireError> {
    failpoint::fail_io("serve.read", conn)?;
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr);
    if len > MAX_FRAME {
        return Err(WireError::Malformed(format!("frame of {len} bytes")));
    }
    // The buffer grows with the bytes that arrive, not with the length
    // the header claims: a short stream costs at most one chunk.
    let mut buf = Vec::with_capacity((len as usize).min(READ_CHUNK));
    r.take(u64::from(len)).read_to_end(&mut buf)?;
    if buf.len() != len as usize {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    Ok(buf)
}

/// Write one frame. `conn` keys the `serve.write` failpoint.
pub fn write_frame(w: &mut impl Write, conn: u64, payload: &[u8]) -> Result<(), WireError> {
    failpoint::fail_io("serve.write", conn)?;
    debug_assert!(payload.len() <= MAX_FRAME as usize);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Begin,
            Request::Commit,
            Request::Abort,
            Request::Ship {
                name: "shipped.rate".into(),
                ptml: vec![1, 2, 3, 0xff],
            },
            Request::Call {
                name: "score.rate".into(),
                args: vec![
                    Value::Int(-42),
                    Value::Bool(true),
                    Value::Str("x".into()),
                    Value::Unit,
                ],
            },
            Request::Optimize {
                name: "shipped.rate".into(),
            },
            Request::Bye,
            Request::Shutdown,
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Val(Value::Int(7)),
            Response::Err {
                code: ErrCode::Aborted,
                msg: "deadlock victim".into(),
            },
            Response::Bye,
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for rsp in responses() {
            let bytes = encode_response(&rsp);
            assert_eq!(decode_response(&bytes).unwrap(), rsp, "{rsp:?}");
        }
    }

    /// Every single-bit flip and every truncation of `bytes`.
    fn damaged(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let flips = (0..bytes.len() * 8).map(|bit| {
            let mut b = bytes.to_vec();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        });
        flips.chain((0..bytes.len()).map(|cut| bytes[..cut].to_vec()))
    }

    /// A reader over `bytes` that records the largest buffer it was
    /// asked to fill: what the caller allocated before data arrived.
    struct Probe<'a> {
        bytes: &'a [u8],
        widest: usize,
    }

    impl Read for Probe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    /// Read `framed` with [`read_frame`]: a typed error or a payload,
    /// and no buffer wider than [`READ_CHUNK`] offered to the stream.
    fn read_damaged(framed: &[u8]) -> Option<Vec<u8>> {
        let mut probe = Probe {
            bytes: framed,
            widest: 0,
        };
        let got = read_frame(&mut probe, 0);
        assert!(probe.widest <= READ_CHUNK, "{} byte buffer", probe.widest);
        got.ok()
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, 0, payload).unwrap();
        out
    }

    #[test]
    fn damaged_requests_decode_or_fail_typed() {
        let decode = |b: &[u8]| match decode_request(b) {
            Ok(_) | Err(WireError::Malformed(_) | WireError::Io(_)) => {}
        };
        for req in requests() {
            let bytes = encode_request(&req);
            damaged(&bytes).for_each(|b| decode(&b));
            for f in damaged(&framed(&bytes)) {
                if let Some(payload) = read_damaged(&f) {
                    decode(&payload);
                }
            }
        }
    }

    #[test]
    fn damaged_responses_decode_or_fail_typed() {
        let decode = |b: &[u8]| match decode_response(b) {
            Ok(_) | Err(WireError::Malformed(_) | WireError::Io(_)) => {}
        };
        for rsp in responses() {
            let bytes = encode_response(&rsp);
            damaged(&bytes).for_each(|b| decode(&b));
            for f in damaged(&framed(&bytes)) {
                if let Some(payload) = read_damaged(&f) {
                    decode(&payload);
                }
            }
        }
    }

    #[test]
    fn a_header_claiming_more_than_arrives_allocates_one_chunk() {
        // The length's top byte flipped: 16 MiB claimed, 3 bytes sent.
        let mut f = framed(&[9, 9, 9]);
        f[2] ^= 0xff;
        assert_eq!(read_damaged(&f), None);
    }

    #[test]
    fn frames_roundtrip_and_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, &[9, 9, 9]).unwrap();
        let got = read_frame(&mut buf.as_slice(), 1).unwrap();
        assert_eq!(got, vec![9, 9, 9]);
        // An adversarial length header is an error, not an allocation.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut huge.as_slice(), 1),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[200]).is_err());
        assert!(decode_response(&[RSP_ERR, 99, 0]).is_err());
        // Trailing garbage after a valid body.
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }
}
