//! The output checker: a pure function of the logs the workers record and of
//! the generator's parameters.  It recomputes what every output must be from
//! the parameters alone; nothing here compares against stored output.
//!
//! Logs are summaries built online, so a ten-second run needs no per-element
//! buffer:
//!
//! * a consumer keeps, per producer, the number of ids it dequeued, their
//!   multiset hash (a wrapping sum of a 64-bit mix of each id) and whether
//!   the producer's sequence numbers ever went backwards;
//! * the ping-pong client and server fold every reply and request into an
//!   order-sensitive digest.
//!
//! A lost, duplicated or foreign element changes a count or a hash; two
//! faults that cancel in both would need a 64-bit hash collision.

use wcq_harness::DetRng;

/// Low bits of an element id that hold the producer's sequence number; the
/// bits above hold the producer's index.
pub const SEQ_BITS: u32 = 40;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// The id producer `producer` gives to its `seq`-th element.
pub fn id(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << SEQ_BITS) | seq
}

/// SplitMix64's finalizer: a bijective 64-bit mix.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one consumer saw of one producer's ids.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    count: u64,
    hash: u64,
    /// One past the highest sequence number seen.
    end: u64,
    /// Ids that arrived with a sequence number at or below an earlier one.
    backwards: u64,
}

/// One consumer's log of the ids it dequeued.
#[derive(Debug, Clone)]
pub struct ConsumerLog {
    seen: Vec<Seen>,
    foreign: u64,
}

impl ConsumerLog {
    /// An empty log for a run with `producers` producers.
    pub fn new(producers: usize) -> Self {
        Self {
            seen: vec![Seen::default(); producers],
            foreign: 0,
        }
    }

    /// Records one dequeued id.
    #[inline]
    pub fn record(&mut self, id: u64) {
        let seq = id & SEQ_MASK;
        match self.seen.get_mut((id >> SEQ_BITS) as usize) {
            None => self.foreign += 1,
            Some(s) => {
                s.count += 1;
                s.hash = s.hash.wrapping_add(mix(id));
                if seq < s.end {
                    s.backwards += 1;
                } else {
                    s.end = seq + 1;
                }
            }
        }
    }
}

/// Checks the queue workloads: every id `(p, s)` with `s < produced[p]` was
/// dequeued exactly once across `logs` (the workers' logs and the final
/// drain's), no other id was, and — where the backend promises FIFO — each
/// consumer saw each producer's ids in increasing order.
pub fn check_queue(produced: &[u64], logs: &[ConsumerLog], fifo: bool) -> Result<(), String> {
    for (c, log) in logs.iter().enumerate() {
        if log.foreign > 0 || log.seen.len() != produced.len() {
            return Err(format!("consumer {c} dequeued ids of unknown producers"));
        }
    }
    for (p, &n) in produced.iter().enumerate() {
        let count: u64 = logs.iter().map(|l| l.seen[p].count).sum();
        if count < n {
            return Err(format!("{} of producer {p}'s {n} ids were lost", n - count));
        }
        if count > n {
            return Err(format!(
                "producer {p}'s ids were dequeued {} times too often",
                count - n
            ));
        }
        for (c, log) in logs.iter().enumerate() {
            let s = log.seen[p];
            if s.end > n {
                return Err(format!(
                    "consumer {c} dequeued producer {p}'s id {} of {n}",
                    s.end - 1
                ));
            }
            if fifo && s.backwards > 0 {
                return Err(format!(
                    "consumer {c} saw producer {p}'s ids out of order {} times",
                    s.backwards
                ));
            }
        }
        let hash = logs
            .iter()
            .fold(0u64, |h, l| h.wrapping_add(l.seen[p].hash));
        let want = (0..n).fold(0u64, |h, s| h.wrapping_add(mix(id(p, s))));
        if hash != want {
            return Err(format!(
                "producer {p}: the dequeued ids are not its ids 0..{n}"
            ));
        }
    }
    Ok(())
}

/// The request stream of a ping-pong client: payloads drawn from the seed.
pub fn requests(seed: u64) -> DetRng {
    DetRng::new(seed)
}

/// The server's computation: the reply a request must get.
pub fn reply_to(request: u64) -> u64 {
    request.rotate_left(17) ^ 0x5851_F42D_4C95_7F2D
}

fn fold(digest: u64, value: u64) -> u64 {
    mix(digest ^ value)
}

/// The ping-pong client's log.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientLog {
    /// Requests sent.
    pub sent: u64,
    /// Replies received.
    pub replies: u64,
    /// Order-sensitive digest of the replies.
    pub digest: u64,
}

impl ClientLog {
    /// Records a received reply.
    #[inline]
    pub fn reply(&mut self, value: u64) {
        self.replies += 1;
        self.digest = fold(self.digest, value);
    }
}

/// The ping-pong server's log.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLog {
    /// Requests received.
    pub received: u64,
    /// Order-sensitive digest of the requests.
    pub digest: u64,
    /// Requests received when `recv` first reported `Closed`.
    pub closed_after: Option<u64>,
    /// Replies the reply channel refused.
    pub refused: u64,
}

impl ServerLog {
    /// Records a received request.
    #[inline]
    pub fn request(&mut self, value: u64) {
        self.received += 1;
        self.digest = fold(self.digest, value);
    }
}

/// Checks the ping-pong workload: the server received exactly the client's
/// seeded requests in order, every reply equals [`reply_to`] of its request,
/// and the server saw `Closed` only after it had drained every request.
pub fn check_pingpong(seed: u64, client: &ClientLog, server: &ServerLog) -> Result<(), String> {
    let mut rng = requests(seed);
    let (mut req_digest, mut rep_digest) = (0, 0);
    for _ in 0..client.sent {
        let r = rng.next_u64();
        req_digest = fold(req_digest, r);
        rep_digest = fold(rep_digest, reply_to(r));
    }
    if server.received != client.sent || server.digest != req_digest {
        return Err(format!(
            "the server's {} requests are not the client's {} requests",
            server.received, client.sent
        ));
    }
    if server.refused > 0 {
        return Err(format!("{} replies were refused", server.refused));
    }
    if client.replies != client.sent || client.digest != rep_digest {
        return Err(format!(
            "the client's {} replies are not the replies to its {} requests",
            client.replies, client.sent
        ));
    }
    match server.closed_after {
        Some(n) if n == client.sent => Ok(()),
        Some(n) => Err(format!(
            "the server saw Closed after {n} of {} requests",
            client.sent
        )),
        None => Err("the server never saw the channel close".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two producers of four ids each; consumer 0 takes the even sequence
    /// numbers, consumer 1 the odd ones.
    fn clean() -> (Vec<u64>, Vec<Vec<u64>>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for s in 0..4 {
            for p in 0..2 {
                if s % 2 == 0 { &mut a } else { &mut b }.push(id(p, s));
            }
        }
        (vec![4, 4], vec![a, b])
    }

    fn logs(seqs: &[Vec<u64>]) -> Vec<ConsumerLog> {
        seqs.iter()
            .map(|ids| {
                let mut log = ConsumerLog::new(2);
                ids.iter().for_each(|&i| log.record(i));
                log
            })
            .collect()
    }

    #[test]
    fn a_clean_queue_log_passes() {
        let (produced, seqs) = clean();
        assert_eq!(check_queue(&produced, &logs(&seqs), true), Ok(()));
    }

    #[test]
    fn a_lost_element_fails() {
        let (produced, mut seqs) = clean();
        seqs[1].retain(|&i| i != id(1, 3));
        assert!(check_queue(&produced, &logs(&seqs), false).is_err());
    }

    #[test]
    fn a_duplicated_element_fails() {
        let (produced, mut seqs) = clean();
        seqs[1].push(id(0, 2)); // consumer 0 already has it
        assert!(check_queue(&produced, &logs(&seqs), false).is_err());
    }

    #[test]
    fn a_lost_element_masked_by_a_duplicate_fails() {
        let (produced, mut seqs) = clean();
        seqs[1].retain(|&i| i != id(1, 3));
        seqs[1].push(id(1, 1));
        assert!(check_queue(&produced, &logs(&seqs), false).is_err());
    }

    #[test]
    fn a_producers_elements_out_of_order_fail_where_fifo_is_promised() {
        let (produced, mut seqs) = clean();
        seqs[0].swap(0, 2); // producer 0's seq 0 and seq 2
        assert!(check_queue(&produced, &logs(&seqs), true).is_err());
        assert_eq!(check_queue(&produced, &logs(&seqs), false), Ok(()));
    }

    #[test]
    fn a_foreign_element_fails() {
        let (produced, mut seqs) = clean();
        seqs[0].push(id(7, 0));
        assert!(check_queue(&produced, &logs(&seqs), false).is_err());
    }

    /// Runs a faithful ping-pong of `n` requests through the logs.
    fn pingpong(seed: u64, n: u64) -> (ClientLog, ServerLog) {
        let (mut client, mut server) = (ClientLog::default(), ServerLog::default());
        let mut rng = requests(seed);
        for _ in 0..n {
            let r = rng.next_u64();
            client.sent += 1;
            server.request(r);
            client.reply(reply_to(r));
        }
        server.closed_after = Some(server.received);
        (client, server)
    }

    #[test]
    fn a_clean_pingpong_log_passes() {
        let (client, server) = pingpong(9, 50);
        assert_eq!(check_pingpong(9, &client, &server), Ok(()));
    }

    #[test]
    fn a_wrong_reply_fails() {
        let (mut client, server) = pingpong(9, 50);
        let mut rng = requests(9);
        client = ClientLog {
            sent: client.sent,
            ..ClientLog::default()
        };
        for i in 0..50 {
            let r = rng.next_u64();
            client.reply(if i == 31 { r } else { reply_to(r) }); // an echo
        }
        assert!(check_pingpong(9, &client, &server).is_err());
    }

    #[test]
    fn closed_seen_before_the_drain_fails() {
        let (client, mut server) = pingpong(9, 50);
        server.closed_after = Some(49);
        assert!(check_pingpong(9, &client, &server).is_err());
        server.closed_after = None;
        assert!(check_pingpong(9, &client, &server).is_err());
    }

    #[test]
    fn requests_from_another_seed_fail() {
        let (client, server) = pingpong(9, 50);
        assert!(check_pingpong(10, &client, &server).is_err());
    }
}
