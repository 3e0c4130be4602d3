//! The benchmark's seeded randomness: an inline splitmix64, so request order
//! and arrival times are a pure function of `--seed`.

/// splitmix64 (Steele, Lea, Flood 2014): tiny, fast, and statistically
/// sound for shuffles and arrival-time draws.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// An independent stream for one purpose (a tenant, a connection), so
    /// adding draws to one stream never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> SplitMix64 {
        let mut mixer = SplitMix64::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f));
        SplitMix64::new(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so every value is equally
    /// likely.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Deals a multiset of cards in a fresh seeded order each pass, so every
/// card comes up equally often however many are drawn: run-to-run
/// differences then come from the system, not from sampling the mix.
pub struct Deck {
    rng: SplitMix64,
    cards: Vec<usize>,
    dealt: usize,
}

impl Deck {
    pub fn new(rng: SplitMix64, cards: Vec<usize>) -> Deck {
        assert!(!cards.is_empty(), "an empty deck");
        let dealt = cards.len();
        Deck { rng, cards, dealt }
    }

    pub fn draw(&mut self) -> usize {
        if self.dealt == self.cards.len() {
            self.rng.shuffle(&mut self.cards);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_splitmix64_sequence() {
        // First outputs of splitmix64 seeded with 0 (reference C code).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn a_deck_deals_every_card_once_per_pass() {
        let mut deck = Deck::new(SplitMix64::new(1), vec![0, 0, 1, 2]);
        for _ in 0..5 {
            let mut pass: Vec<usize> = (0..4).map(|_| deck.draw()).collect();
            pass.sort_unstable();
            assert_eq!(pass, [0, 0, 1, 2]);
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        SplitMix64::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..50).collect::<Vec<_>>());
    }
}
