// The signed-envelope shapes L003 must accept: a generic `impl<B> Wire for
// Signed<B>` covered by a turbofish roundtrip, and a body whose only
// roundtrip goes through its `type Alias = Signed<Body>` — decoding the
// alias decodes the body and then its trailing signature.
pub struct Signed<B> {
    pub body: B,
    pub signature: [u8; 16],
}

impl<B: Wire> Wire for Signed<B> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.body.encode(out);
        out.extend_from_slice(&self.signature);
    }
}

pub struct NoteBody {
    pub tag: u8,
}

pub type Note = Signed<NoteBody>;

impl Wire for NoteBody {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let bytes = [7u8; 17];
        assert_eq!(Signed::<NoteBody>::from_wire_bytes(&bytes).unwrap().body.tag, 7);
        assert_eq!(Note::from_wire_bytes(&bytes).unwrap().body.tag, 7);
    }
}
