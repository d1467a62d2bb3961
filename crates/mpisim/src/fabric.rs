//! The channel fabric connecting ranks.

use std::sync::mpsc::{channel as unbounded, Receiver, Sender};

use shrinksvm_analyze::VectorClock;

/// One in-flight message.
#[derive(Debug)]
pub(crate) struct Message {
    /// Matching tag (point-to-point namespace or collective namespace).
    pub tag: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Sender's simulated clock at departure (after send overhead).
    pub depart: f64,
    /// Sender's vector clock at departure; present only under validation.
    pub vclock: Option<VectorClock>,
    /// [`crate::fault::checksum`] of the payload, stamped at send time and verified
    /// at receive time: injected corruption is detected, not silent.
    pub checksum: u64,
    /// Sender's per-destination sequence number — the deterministic key
    /// that fault rules are coined on.
    pub link_seq: u64,
    /// Extra in-flight simulated seconds accumulated by injected delays
    /// and retransmission backoff; written by the receiving transport when
    /// the message is dequeued, folded into the arrival clock when it is
    /// matched.
    pub penalty: f64,
}

/// All channel endpoints belonging to one rank: a sender handle towards
/// every rank and a receiver handle from every rank.
pub(crate) struct Endpoints {
    pub outgoing: Vec<Sender<Message>>,
    pub incoming: Vec<Receiver<Message>>,
}

/// Build a fully-connected fabric of `p` ranks.
///
/// Returns one [`Endpoints`] per rank. `endpoints[q].outgoing[r]` feeds
/// `endpoints[r].incoming[q]`; a rank may also send to itself (used by
/// degenerate collectives), since the channels are buffered.
pub(crate) fn build(p: usize) -> Vec<Endpoints> {
    assert!(p >= 1, "need at least one rank");
    // senders[src][dst], receivers[dst][src]
    let mut senders: Vec<Vec<Option<Sender<Message>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    let mut receivers: Vec<Vec<Option<Receiver<Message>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for src in 0..p {
        for dst in 0..p {
            let (tx, rx) = unbounded();
            senders[src][dst] = Some(tx);
            receivers[dst][src] = Some(rx);
        }
    }
    senders
        .into_iter()
        .zip(receivers)
        .map(|(out_row, in_row)| Endpoints {
            outgoing: out_row.into_iter().map(|s| s.unwrap()).collect(),
            incoming: in_row.into_iter().map(|r| r.unwrap()).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_wires_src_to_dst() {
        let mut eps = build(3);
        // rank 0 -> rank 2
        eps[0].outgoing[2]
            .send(Message {
                tag: 7,
                payload: vec![1, 2, 3],
                depart: 0.5,
                vclock: None,
                checksum: 0,
                link_seq: 0,
                penalty: 0.0,
            })
            .unwrap();
        let got = eps[2].incoming[0].recv().unwrap();
        assert_eq!(got.tag, 7);
        assert_eq!(got.payload, vec![1, 2, 3]);
        assert_eq!(got.depart, 0.5);
        // nothing arrived anywhere else
        assert!(eps[1].incoming[0].try_recv().is_err());
        assert!(eps[2].incoming[1].try_recv().is_err());
        let _ = &mut eps;
    }

    #[test]
    fn self_send_works() {
        let eps = build(1);
        eps[0].outgoing[0]
            .send(Message {
                tag: 1,
                payload: vec![],
                depart: 0.0,
                vclock: None,
                checksum: 0,
                link_seq: 0,
                penalty: 0.0,
            })
            .unwrap();
        assert!(eps[0].incoming[0].recv().is_ok());
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        build(0);
    }
}
