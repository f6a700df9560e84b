// Known-bad: a macro_rules! codec whose generated WireDecode impl unwraps
// on attacker bytes. The body is scanned like a hand-written impl.
// Expected: exactly one panic-free-decode diagnostic (line of the unwrap).

macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),+ }) => {
        impl WireDecode for $name {
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name {
                    $($field: <$ty as WireDecode>::decode_from(r).unwrap(),)+
                })
            }
        }
    };
}

wire_struct! { Claim { tag: u64, body: Vec<u8> } }
