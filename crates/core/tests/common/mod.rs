//! Shared by the wire suites: the differential between the two readers a
//! field table generates.

use treplica::Wire;

/// `T::check` against `T::decode` on the same bytes: the same `Result`
/// — `Ok` together, the same error otherwise — and the input left at
/// the same place, whichever it is.
pub fn assert_check_matches_decode<T: Wire>(bytes: &[u8]) {
    let (mut checked, mut decoded) = (bytes, bytes);
    let check = T::check(&mut checked);
    let decode = T::decode(&mut decoded).map(drop);
    assert_eq!(check, decode, "check vs decode on {bytes:?}");
    assert_eq!(
        checked.len(),
        decoded.len(),
        "bytes left by check vs decode ({check:?}) on {bytes:?}"
    );
}
