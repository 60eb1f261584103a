//! Pins every guest image the toolchain builds: text words, data bytes,
//! name-sorted symbols, per-word source lines and the entry point are folded
//! into one FNV-1a digest per (source, build flavour). A change to the
//! compiler or assembler that moves a single word or symbol shows up here
//! as a digest mismatch naming the guest.

use ptaint_asm::Image;
use ptaint_guest::apps::{
    dispatchd, ghttpd, globd, null_httpd, synthetic, table4, traceroute, wu_ftpd,
};
use ptaint_guest::workloads;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so adjacent sections cannot alias.
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("section fits in u32"));
    }
}

fn fingerprint(image: &Image) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    h.len(image.text.len());
    for &w in &image.text {
        h.u32(w);
    }
    h.len(image.data.len());
    h.bytes(&image.data);
    let mut symbols: Vec<(&str, u32)> = image
        .symbols
        .iter()
        .map(|(n, &a)| (n.as_str(), a))
        .collect();
    symbols.sort_unstable();
    h.len(symbols.len());
    for (name, addr) in symbols {
        h.len(name.len());
        h.bytes(name.as_bytes());
        h.u32(addr);
    }
    h.len(image.lines.len());
    for &l in &image.lines {
        h.u32(l);
    }
    h.u32(image.entry);
    h.0
}

fn guests() -> Vec<(&'static str, &'static str)> {
    let mut out = vec![
        ("dispatchd", dispatchd::SOURCE),
        ("ghttpd", ghttpd::SOURCE),
        ("globd", globd::SOURCE),
        ("null_httpd", null_httpd::SOURCE),
        ("traceroute", traceroute::SOURCE),
        ("wu_ftpd", wu_ftpd::SOURCE),
        ("int_overflow", table4::INT_OVERFLOW_SOURCE),
        ("auth_flag", table4::AUTH_FLAG_SOURCE),
        ("fmt_leak", table4::FMT_LEAK_SOURCE),
        ("exp1", synthetic::EXP1_SOURCE),
        ("exp2", synthetic::EXP2_SOURCE),
        ("exp3", synthetic::EXP3_SOURCE),
    ];
    out.extend(workloads::all().into_iter().map(|w| (w.name, w.source)));
    out
}

/// `(guest, plain digest, optimized digest)`.
const PINNED: &[(&str, u64, u64)] = &[
    ("dispatchd", 0x4e53c15c2bc7fbb5, 0x845a43d39e662b77),
    ("ghttpd", 0x0acead994b1b725c, 0x2b724392074706b4),
    ("globd", 0x3c42807871524a35, 0xc74941d4caea9c4e),
    ("null_httpd", 0xf7aea39dd24c5fcc, 0x2fa21a7b43547154),
    ("traceroute", 0x0a5d8b848ce60403, 0xefb65363eb97d4a8),
    ("wu_ftpd", 0x5f175cc24a5fe263, 0x3b9c43c940e624fa),
    ("int_overflow", 0xd56aa9e9f4648ca5, 0x5d34441889d3d076),
    ("auth_flag", 0x4f61320fa71a5777, 0xa66c100b947677a7),
    ("fmt_leak", 0x523c6c34039676fa, 0x33e9a2046c6699c5),
    ("exp1", 0xfcbcc37dded3f734, 0x55ef955f48285c55),
    ("exp2", 0x1e8790286dca6594, 0x5c08f48e84879418),
    ("exp3", 0x9284c1d97ca6db22, 0xe6324177bba1722c),
    ("bzip2", 0xd650bb6377b81aa7, 0x8d935e1c37433b0c),
    ("gcc", 0x06c0be7241ed37ec, 0x11665992e4a8e01e),
    ("gzip", 0xbea7f4e2990f6c6f, 0xf6968153c2a290e6),
    ("mcf", 0xd9b3ef286f48ced0, 0x3f66898fe396473f),
    ("parser", 0x859b0cb06d481637, 0xe327865be120197a),
    ("vpr", 0x6ef17af5511fc33b, 0xc2444380e1731b78),
];

#[test]
fn every_guest_image_matches_its_pinned_fingerprint() {
    let mut actual = Vec::new();
    for (name, source) in guests() {
        let plain = ptaint_guest::build(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let opt = ptaint_guest::build_optimized(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        actual.push((name, fingerprint(&plain), fingerprint(&opt)));
    }
    let table: String = actual
        .iter()
        .map(|(n, p, o)| format!("    (\"{n}\", {p:#018x}, {o:#018x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        PINNED.len(),
        "guest list changed; current table:\n{table}"
    );
    for ((name, plain, opt), &(pname, pplain, popt)) in actual.iter().zip(PINNED) {
        assert_eq!(*name, pname, "guest order changed; current table:\n{table}");
        assert_eq!(
            *plain, pplain,
            "{name}: plain image moved; current table:\n{table}"
        );
        assert_eq!(
            *opt, popt,
            "{name}: optimized image moved; current table:\n{table}"
        );
    }
}
