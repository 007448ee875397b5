// Deliberate L003 bait in the signed-envelope shapes: a generic
// `impl<B> Wire for Signed<B>` nobody decodes, and a body whose alias
// exists but is never roundtripped either — the alias must not hide it.
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

pub struct LooseBody {
    pub tag: u8,
}

pub type Loose = Signed<LooseBody>;

impl Wire for LooseBody {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag);
    }
}
