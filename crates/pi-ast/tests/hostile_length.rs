//! A length prefix costs what the input holds, not what it declares.
//!
//! The workspace's counting global allocator (`tests/support/counting_alloc.rs` at the
//! repository root) keeps a per-thread tally of the bytes requested from it (`alloc`,
//! `alloc_zeroed`, and the new size of every `realloc`).  Journal batch records and
//! session snapshots read their strings with [`codec::take_str`], so a record that declares
//! a string longer than itself must fail before reserving the declared length.

use pi_ast::codec::{self, CodecError};
use std::io::ErrorKind;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocated_bytes;

/// A length prefix declaring `len` bytes, followed by `payload`.
fn prefixed(len: u64, payload: &[u8]) -> Vec<u8> {
    let mut input = Vec::new();
    codec::put_varint(&mut input, len).unwrap();
    input.extend_from_slice(payload);
    input
}

#[test]
fn a_string_longer_than_its_input_fails_without_reserving_its_length() {
    // The largest length the sanity bound admits, in a 10-byte input.
    let input = prefixed((1 << 28) - 1, b"abcdef");
    assert_eq!(input.len(), 10);
    let before = allocated_bytes();
    let result = codec::take_str(&mut input.as_slice());
    let allocated = allocated_bytes() - before;
    match result {
        Err(CodecError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
        other => panic!("a truncated string must fail to read, got {other:?}"),
    }
    assert!(allocated < 4096, "reading it allocated {allocated} bytes");
    // Past the bound, the prefix alone is corrupt.
    let input = prefixed(1 << 29, b"abcdef");
    assert!(matches!(
        codec::take_str(&mut input.as_slice()),
        Err(CodecError::Corrupt(_))
    ));
}

#[test]
fn strings_longer_than_the_first_reservation_still_round_trip() {
    for len in [0, 1, 1023, 1024, 1025, 5000] {
        let text: String = (0..len)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let mut input = Vec::new();
        codec::put_str(&mut input, &text).unwrap();
        input.extend_from_slice(b"tail");
        let mut reader = input.as_slice();
        assert_eq!(codec::take_str(&mut reader).unwrap(), text);
        assert_eq!(reader, b"tail", "the read stops at the declared length");
        // One byte short of the declared length is a truncation, not a shorter string.
        let mut short = &input[..input.len() - 5];
        if len > 0 {
            assert!(codec::take_str(&mut short).is_err());
        }
    }
}
