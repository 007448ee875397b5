// Deliberate L008 bait: raw arithmetic on slot- and view-named values. At
// the wraparound these silently reorder the log instead of failing loudly.
pub fn advance(slot: u64) -> u64 {
    slot + 1
}

pub fn previous(view: u64) -> u64 {
    view - 1
}
