//! Everything the daemon is fed, generated from the run's `--seed`: the
//! training CSV, unique held-out contracts and the Zipf-skewed redeploy
//! stream. The daemon never sees the seed, only these bytes.

use crate::schedule::Rng;
use phishinghook_data::{ChainFirehose, Corpus, CorpusConfig, FirehoseConfig};
use phishinghook_evm::keccak::{to_hex, Digest};
use std::collections::HashSet;

/// Contracts in the training CSV.
pub const TRAIN_CONTRACTS: usize = 1000;

/// Distinct held-out contracts the unique request streams are built on.
pub const HELD_OUT_BASES: usize = 2000;

/// The seeded training corpus.
pub fn training_corpus(seed: u64) -> Corpus {
    Corpus::generate(&CorpusConfig {
        n_contracts: TRAIN_CONTRACTS,
        seed: Rng::new(seed, 1).next_u64(),
        ..Default::default()
    })
}

/// Held-out base contracts: a second corpus from another stream of the
/// seed, minus anything the training corpus contains.
pub fn held_out_bases(seed: u64, train: &Corpus) -> Vec<Vec<u8>> {
    let seen: HashSet<Digest> = train
        .records
        .iter()
        .map(|r| Digest::of(&r.bytecode))
        .collect();
    Corpus::generate(&CorpusConfig {
        n_contracts: HELD_OUT_BASES,
        seed: Rng::new(seed, 2).next_u64(),
        ..Default::default()
    })
    .records
    .into_iter()
    .map(|r| r.bytecode)
    .filter(|code| !seen.contains(&Digest::of(code)))
    .collect()
}

/// Unique request contracts over a base pool: request `i` is base
/// `i mod n` followed by a Solidity-style CBOR metadata trailer whose
/// 32-byte source hash is drawn per request — exactly how recompiled
/// redeploys of one source differ on chain. Every request is therefore a
/// distinct bytecode (a verdict-cache miss) that was never trained on.
#[derive(Debug, Clone)]
pub struct UniqueStream {
    bases: Vec<Vec<u8>>,
    /// The bases pre-rendered as hex, so the load generator only encodes
    /// each request's trailer.
    base_hex: Vec<String>,
    salt: u64,
}

impl UniqueStream {
    /// A stream over `bases` whose trailers derive from `seed`.
    pub fn new(bases: Vec<Vec<u8>>, seed: u64) -> UniqueStream {
        assert!(!bases.is_empty(), "no held-out contracts");
        UniqueStream {
            base_hex: bases.iter().map(|b| to_hex(b)).collect(),
            bases,
            salt: Rng::new(seed, 3).next_u64(),
        }
    }

    fn trailer(&self, i: usize) -> Vec<u8> {
        let mut rng = Rng::new(self.salt, i as u64);
        // a2 64 "ipfs" 58 22 12 20 <32-byte hash> 64 "solc" 43 <0.8.26> 00 33
        let mut t = vec![0xa2, 0x64, b'i', b'p', b'f', b's', 0x58, 0x22, 0x12, 0x20];
        for _ in 0..4 {
            t.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        t.extend_from_slice(&[
            0x64, b's', b'o', b'l', b'c', 0x43, 0x00, 0x08, 0x1a, 0x00, 0x33,
        ]);
        t
    }

    /// The bytecode of request `i`.
    pub fn code(&self, i: usize) -> Vec<u8> {
        let mut code = self.bases[i % self.bases.len()].clone();
        code.extend_from_slice(&self.trailer(i));
        code
    }

    /// [`UniqueStream::code`] as hex.
    pub fn hex(&self, i: usize) -> String {
        let mut hex = self.base_hex[i % self.bases.len()].clone();
        hex.push_str(&to_hex(&self.trailer(i)));
        hex
    }
}

/// A Zipf-skewed redeploy stream: `events[i]` indexes `pool`.
#[derive(Debug, Clone)]
pub struct Redeploys {
    /// Distinct template bytecodes.
    pub pool: Vec<Vec<u8>>,
    /// The templates as hex.
    pub pool_hex: Vec<String>,
    /// Template index of each deploy event, in stream order.
    pub events: Vec<u32>,
}

/// `n` events of a [`ChainFirehose`] over `templates` templates with the
/// firehose's default skew.
pub fn redeploys(seed: u64, templates: usize, n: usize) -> Redeploys {
    let corpus = Corpus::generate(&CorpusConfig {
        n_contracts: templates,
        seed: Rng::new(seed, 4).next_u64(),
        ..Default::default()
    });
    let config = FirehoseConfig {
        templates,
        seed: Rng::new(seed, 5).next_u64(),
        ..Default::default()
    };
    let firehose = ChainFirehose::from_corpus(&corpus, &config);
    let pool: Vec<Vec<u8>> = corpus.records[..firehose.template_pool()]
        .iter()
        .map(|r| r.bytecode.clone())
        .collect();
    let events = firehose.take(n).map(|e| e.template as u32).collect();
    Redeploys {
        pool_hex: pool.iter().map(|c| to_hex(c)).collect(),
        pool,
        events,
    }
}

/// One v2 JSONL request object (no newline) for hex bytecode.
pub fn request_json(id: usize, hex: &str) -> String {
    format!("{{\"id\":\"{id}\",\"bytecode\":\"0x{hex}\"}}")
}

/// One `POST /predict` request carrying `body`.
pub fn http_request(body: &str) -> Vec<u8> {
    let mut out = format!(
        "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_stream_is_distinct_seeded_and_keeps_the_base() {
        let stream = UniqueStream::new(vec![vec![0x60, 0x80], vec![0x60, 0x00]], 11);
        let a = stream.code(0);
        assert!(a.starts_with(&[0x60, 0x80]));
        assert_eq!(a.len(), 2 + 53);
        assert!(a.ends_with(&[0x00, 0x33]));
        assert!(stream.code(2).starts_with(&[0x60, 0x80]));
        let distinct: HashSet<Vec<u8>> = (0..500).map(|i| stream.code(i)).collect();
        assert_eq!(distinct.len(), 500);
        assert_eq!(UniqueStream::new(vec![vec![0x60, 0x80]], 11).code(0), a);
        assert_eq!(stream.hex(3), to_hex(&stream.code(3)));
        assert_ne!(UniqueStream::new(vec![vec![0x60, 0x80]], 12).code(0), a);
    }

    #[test]
    fn requests_frame_their_bodies() {
        let body = request_json(3, "6080");
        assert_eq!(body, r#"{"id":"3","bytecode":"0x6080"}"#);
        let raw = http_request(&body);
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("POST /predict HTTP/1.1\r\n"));
        assert!(text.ends_with(&format!("Content-Length: {}\r\n\r\n{body}", body.len())));
    }
}
