//! The in-place state macro, used the way the simulator's crates use it:
//! from outside `attila-json`, where `$crate` paths and the exports behind
//! them are what a box's field list actually resolves.

use std::collections::VecDeque;

use attila_json::{impl_json_state, JsonState};

#[derive(Debug, Default, PartialEq)]
struct Bank {
    row: Option<u64>,
    hits: u64,
}
impl_json_state!(Bank { row: hex, hits: hex } skip {});

#[derive(Debug, Default, PartialEq)]
struct Channel {
    label: &'static str,
    banks: Vec<Bank>,
    recent: VecDeque<u64>,
    cursor: usize,
    spare: Option<Bank>,
}
impl_json_state!(Channel { banks: state, recent: hex, cursor as next, spare: state } skip {
    "wiring: the label is the channel's, not its state": label,
});

fn channel(label: &'static str) -> Channel {
    Channel { label, banks: vec![Bank::default(), Bank::default()], ..Default::default() }
}

#[test]
fn list_drives_both_directions_and_keeps_the_rest() {
    let mut ch = channel("live");
    ch.banks[1] = Bank { row: Some(u64::MAX), hits: (1 << 53) + 1 };
    ch.recent.extend([7, 9]);
    ch.cursor = 5;
    let saved = ch.save_state();
    assert_eq!(
        saved.render(),
        r#"{"banks":[{"row":null,"hits":"0000000000000000"},{"row":"ffffffffffffffff","hits":"0020000000000001"}],"recent":["0000000000000007","0000000000000009"],"next":5,"spare":null}"#
    );
    let mut fresh = channel("fresh");
    fresh.load_state(&attila_json::parse(&saved.render()).unwrap()).unwrap();
    assert_eq!(fresh, Channel { label: "fresh", ..ch });
}

#[test]
fn refusals_name_the_path_and_sizes_come_from_the_machine() {
    let refusal = |ch: &mut Channel, text: &str| {
        ch.load_state(&attila_json::parse(text).unwrap()).unwrap_err().to_string()
    };
    let saved = channel("a").save_state().render();
    let mut other = Channel { banks: vec![Bank::default()], ..Default::default() };
    assert_eq!(
        refusal(&mut other, &saved),
        "banks: the file carries 2 elements, this machine has 1"
    );
    other = Channel { spare: Some(Bank::default()), ..channel("b") };
    assert!(refusal(&mut other, &saved).starts_with("spare: no state for a part"));
    let bad = r#"{"banks":[{"row":null,"hits":7},{}],"recent":[],"next":0,"spare":null}"#;
    assert_eq!(
        refusal(&mut channel("c"), bad),
        "banks: [0]: hits: expected hex string, found number"
    );
    assert_eq!(refusal(&mut channel("d"), "{}"), "missing field `banks`");
}
