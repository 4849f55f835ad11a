//! A JSON document nested without bound is refused, not a stack overflow.
//!
//! The parser recurses once per array or object, so before it had a depth
//! limit a payload of 10 000 `[` overflowed the stack and aborted the
//! whole process, and every test in its binary with it. That is why these
//! cases live in a test target of their own. Fig. 4's store stage parses
//! every ingested event's payload with `serde_json::from_slice`, so a
//! hostile payload reaches the parser from the request path.

use smartcity::stream::Event;

/// Arrays and objects nest at most this deep, as in real serde_json.
const LIMIT: usize = 128;

fn arrays(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

fn objects(depth: usize) -> String {
    r#"{"a":"#.repeat(depth) + "null" + &"}".repeat(depth)
}

#[test]
fn nesting_up_to_the_limit_parses() {
    for doc in [arrays(LIMIT), objects(LIMIT)] {
        assert!(serde_json::from_str(&doc).is_ok(), "{}", &doc[..8]);
    }
}

#[test]
fn nesting_past_the_limit_is_an_error() {
    for depth in [LIMIT + 1, 10_000, 1_000_000] {
        for doc in [arrays(depth), objects(depth), "[".repeat(depth)] {
            let err = serde_json::from_str(&doc).expect_err("too deep");
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
    }
}

#[test]
fn a_hostile_event_payload_is_an_error() {
    // The call Fig. 4's store stage makes on each event it drains.
    let event = Event::with_key("waze-1", arrays(10_000).into_bytes());
    let err = serde_json::from_slice(event.payload()).expect_err("too deep");
    assert!(err.to_string().contains("recursion limit"), "{err}");
}
