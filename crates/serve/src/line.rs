//! A bounded line reader for the TCP front end.
//!
//! `BufRead::lines` buffers a line of any length, so one client sending
//! bytes without a newline can make the server allocate without bound.
//! [`read_line_capped`] keeps at most `cap` bytes of a line: the rest of
//! an over-long line is read and discarded up to its newline, and the
//! line is reported as [`LineError::TooLong`]. The caller's buffer never
//! grows past `cap`, whatever the input.

use std::fmt;
use std::io::{self, BufRead};

/// Longest protocol line the TCP front end accepts, in bytes before the
/// newline. A job line is a few hundred bytes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Why a line was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// The line is longer than the cap.
    TooLong,
    /// The line is not valid UTF-8.
    NotUtf8,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooLong => write!(f, "line exceeds {MAX_LINE_BYTES} bytes"),
            Self::NotUtf8 => write!(f, "line is not valid UTF-8"),
        }
    }
}

/// Reads the next line from `r` into `buf`, keeping at most `cap` bytes.
///
/// Line endings follow `BufRead::lines`: the `\n` is dropped, and so is a
/// `\r` right before it; a last line without a newline is still a line.
/// Returns `Ok(None)` at end of input.
///
/// # Errors
///
/// Returns the I/O error of the underlying reader.
///
/// # Example
///
/// ```
/// use ultra_serve::line::{read_line_capped, LineError};
///
/// let mut input: &[u8] = b"ok\r\ntoo long\nlast";
/// let mut buf = Vec::new();
/// assert_eq!(read_line_capped(&mut input, 4, &mut buf).unwrap(), Some(Ok("ok")));
/// assert_eq!(
///     read_line_capped(&mut input, 4, &mut buf).unwrap(),
///     Some(Err(LineError::TooLong))
/// );
/// assert_eq!(read_line_capped(&mut input, 4, &mut buf).unwrap(), Some(Ok("last")));
/// assert_eq!(read_line_capped(&mut input, 4, &mut buf).unwrap(), None);
/// ```
pub fn read_line_capped<'b, R: BufRead>(
    r: &mut R,
    cap: usize,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, LineError>>> {
    buf.clear();
    let mut too_long = false;
    let mut seen_any = false;
    let terminated = loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break false;
        }
        seen_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..newline.unwrap_or(chunk.len())];
        if !too_long {
            if buf.len() + body.len() <= cap {
                grow_within(buf, body.len(), cap);
                buf.extend_from_slice(body);
            } else {
                too_long = true;
                buf.clear();
            }
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        r.consume(used);
        if newline.is_some() {
            break true;
        }
    };
    if !seen_any {
        return Ok(None);
    }
    if too_long {
        return Ok(Some(Err(LineError::TooLong)));
    }
    if terminated && buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|_| LineError::NotUtf8),
    ))
}

/// Reserves room for `extra` more bytes, doubling as `Vec` would but
/// never past `cap`.
fn grow_within(buf: &mut Vec<u8>, extra: usize, cap: usize) {
    let needed = buf.len() + extra;
    if needed > buf.capacity() {
        let target = needed.max(buf.capacity() * 2).min(cap);
        buf.reserve_exact(target - buf.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use ultra_sim::rng::{Rng, SplitMix64};

    /// What `read_line_capped` must return for `input`, line by line.
    fn model(input: &[u8], cap: usize) -> Vec<Result<Vec<u8>, LineError>> {
        let mut out = Vec::new();
        let mut rest = input;
        while !rest.is_empty() {
            let (raw, terminated) = match rest.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    let raw = &rest[..i];
                    rest = &rest[i + 1..];
                    (raw, true)
                }
                None => {
                    let raw = rest;
                    rest = &[];
                    (raw, false)
                }
            };
            out.push(if raw.len() > cap {
                Err(LineError::TooLong)
            } else {
                let line = match raw.strip_suffix(b"\r") {
                    Some(stripped) if terminated => stripped,
                    _ => raw,
                };
                match std::str::from_utf8(line) {
                    Ok(_) => Ok(line.to_vec()),
                    Err(_) => Err(LineError::NotUtf8),
                }
            });
        }
        out
    }

    fn read_all(input: &[u8], cap: usize, chunk: usize) -> Vec<Result<Vec<u8>, LineError>> {
        let mut reader = BufReader::with_capacity(chunk, input);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while let Some(line) = read_line_capped(&mut reader, cap, &mut buf).expect("in-memory read")
        {
            out.push(line.map(|s| s.as_bytes().to_vec()));
            assert!(buf.capacity() <= cap, "buffer grew past the cap");
        }
        out
    }

    /// Random input mixing short lines, over-long lines, invalid UTF-8,
    /// `\r\n` endings and a possibly unterminated (truncated) last line.
    fn random_input(rng: &mut SplitMix64, cap: usize) -> Vec<u8> {
        let mut input = Vec::new();
        for _ in 0..rng.below(12) {
            let len = match rng.below(4) {
                0 => rng.below(4),
                1 => cap - rng.below(3).min(cap),
                2 => cap + 1 + rng.below(3 * cap),
                _ => rng.below(cap + 1),
            };
            for _ in 0..len {
                let byte = match rng.below(10) {
                    0 => 0xff, // never valid UTF-8
                    1 => 0xc3, // a lead byte, maybe completed
                    2 => 0xa9, // a continuation byte
                    3 => b'\r',
                    _ => b'a' + rng.below(26) as u8,
                };
                input.push(byte);
            }
            match rng.below(3) {
                0 => input.extend_from_slice(b"\r\n"),
                _ => input.push(b'\n'),
            }
        }
        // Truncate anywhere, often mid-line.
        let cut = rng.below(input.len() + 1);
        input.truncate(cut);
        input
    }

    #[test]
    fn seeded_fuzz_matches_the_line_model() {
        let mut rng = SplitMix64::new(0x0114_eca9);
        for _ in 0..2000 {
            let cap = 1 + rng.below(48);
            let chunk = 1 + rng.below(16);
            let input = random_input(&mut rng, cap);
            assert_eq!(
                read_all(&input, cap, chunk),
                model(&input, cap),
                "cap {cap}, chunk {chunk}, input {input:?}"
            );
        }
    }

    #[test]
    fn valid_lines_read_like_bufread_lines() {
        let input = b"{\"id\": \"a\"}\r\n\n# comment\nno newline at end";
        let expected: Vec<Result<Vec<u8>, LineError>> = input
            .lines()
            .map(|l| Ok(l.expect("utf-8").into_bytes()))
            .collect();
        assert_eq!(read_all(input, MAX_LINE_BYTES, 8192), expected);
    }

    #[test]
    fn an_over_long_line_is_skipped_and_the_next_line_survives() {
        let mut input = vec![b'x'; MAX_LINE_BYTES + 1];
        input.extend_from_slice(b"\n{\"metrics\"}\n");
        let got = read_all(&input, MAX_LINE_BYTES, 8192);
        assert_eq!(
            got,
            vec![Err(LineError::TooLong), Ok(b"{\"metrics\"}".to_vec())]
        );
        let exact = vec![b'y'; MAX_LINE_BYTES];
        assert_eq!(
            read_all(&exact, MAX_LINE_BYTES, 8192),
            vec![Ok(exact.clone())]
        );
    }
}
