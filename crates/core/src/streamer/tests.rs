//! The Streamer's books against the ordered maps they replaced.

use std::collections::{BTreeMap, VecDeque};

use attila_sim::TinyRng;

use super::{CommitRing, FetchBook};

/// The commit ring against the ordered map it replaced: several open
/// batches, each receiving its vertices in a random order, with
/// commits attempted between the arrivals.
#[test]
fn commit_ring_matches_an_ordered_map() {
    let mut rng = TinyRng::new(0xC0_4417);
    for round in 0..300u64 {
        let batches = 1 + rng.range_u32(0, 4) as usize;
        let mut open: Vec<_> = (0..batches)
            .map(|_| {
                let total = 1 + rng.range_u32(0, 120);
                // A random arrival order, mostly near the commit point.
                let mut order: Vec<u32> = (0..total).collect();
                for i in (1..order.len()).rev() {
                    let reach = (i as u32 + 1).min(1 + rng.range_u32(0, 24));
                    let j = i - rng.range_u32(0, reach) as usize;
                    order.swap(i, j);
                }
                order.reverse();
                (CommitRing::new(VecDeque::new()), BTreeMap::new(), 0u32, order)
            })
            .collect();
        while !open.is_empty() {
            let pick = rng.range_u32(0, open.len() as u32) as usize;
            let (ring, map, next, order) = &mut open[pick];
            let value = round << 32 | (pick as u64) << 16;
            if rng.range_u32(0, 3) > 0 {
                if let Some(seq) = order.pop() {
                    ring.insert(seq, value | u64::from(seq));
                    map.insert(seq, value | u64::from(seq));
                }
            } else {
                assert_eq!(ring.next_ready(), map.contains_key(next), "round {round}");
                let expect = map.remove(next);
                if expect.is_some() {
                    *next += 1;
                }
                assert_eq!(ring.pop_next(), expect, "round {round}");
                assert_eq!(ring.next_seq, *next);
            }
            if order.is_empty() && map.is_empty() {
                assert!(ring.slots.is_empty() && !ring.next_ready());
                open.swap_remove(pick);
            }
        }
    }
}

/// The id-range reply lookup against the id → slot map it replaced:
/// vertices of one to four requests, index-chunk ids taken between
/// them (and answered, to be ignored), replies in a random order.
#[test]
fn fetch_book_matches_an_id_map() {
    let mut rng = TinyRng::new(0xFE7C_4B00);
    for round in 0..300u32 {
        let mut book = FetchBook::new();
        let mut map: BTreeMap<u64, usize> = BTreeMap::new();
        let mut slots: Vec<Option<(u32, usize)>> = Vec::new();
        let mut in_flight: Vec<u64> = Vec::new();
        let (mut next_id, mut vertex) = (0u64, 0u32);
        for _ in 0..400 {
            match rng.range_u32(0, 5) {
                0 | 1 if in_flight.len() < 24 => {
                    let requests = 1 + rng.range_u32(0, 4) as usize;
                    book.insert(next_id, requests, vertex);
                    let slot = slots.iter().position(Option::is_none).unwrap_or_else(|| {
                        slots.push(None);
                        slots.len() - 1
                    });
                    slots[slot] = Some((vertex, requests));
                    for id in next_id..next_id + requests as u64 {
                        map.insert(id, slot);
                        in_flight.push(id);
                    }
                    next_id += requests as u64;
                    vertex += 1;
                }
                2 => {
                    // An index chunk's id: answered, booked by neither.
                    in_flight.push(next_id);
                    next_id += 1;
                }
                _ if !in_flight.is_empty() => {
                    let at = rng.range_u32(0, in_flight.len() as u32) as usize;
                    let id = in_flight.swap_remove(at);
                    let expect = map.remove(&id).and_then(|slot| {
                        let (v, left) = slots[slot].as_mut().expect("slot occupied");
                        *left -= 1;
                        let v = *v;
                        (*left == 0).then(|| slots[slot].take().map(|_| v)).flatten()
                    });
                    assert_eq!(book.reply(id), expect, "round {round}, id {id}");
                }
                _ => {}
            }
            assert_eq!(book.owed, map.len(), "round {round}");
        }
    }
}
