//! Graph persistence: SNAP-style text edge lists and a compact binary
//! format.
//!
//! The paper's workflow starts from edge lists on disk (LiveJournal and
//! Twitter2010 ship as text files; Table 2 reports their sizes). The text
//! format here is exactly SNAP's: optional `#` comment lines, then one
//! `src<TAB>dst` pair per line. The binary format trades portability for
//! load speed: little-endian, out-adjacency only (in-adjacency is
//! reconstructed on load).

use crate::{DirectedGraph, NodeId};
use ringo_concurrent::IntHashTable;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes the graph as a SNAP-style text edge list with a comment header.
pub fn save_edge_list(g: &DirectedGraph, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# Nodes: {} Edges: {}", g.node_count(), g.edge_count())?;
    writeln!(w, "# SrcNId\tDstNId")?;
    for (s, d) in g.edges() {
        writeln!(w, "{s}\t{d}")?;
    }
    w.flush()
}

/// Loads a SNAP-style text edge list (whitespace-separated pairs, `#`
/// comments ignored). Isolated nodes are not representable in this format.
/// A line without two integers is `InvalidData` naming the line.
pub fn load_edge_list(path: &Path) -> io::Result<DirectedGraph> {
    let mut reader = BufReader::new(std::fs::File::open(path)?);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut fields = t.split_whitespace();
        let parse = |f: Option<&str>| -> io::Result<NodeId> {
            f.and_then(|x| x.parse().ok()).ok_or_else(|| {
                invalid(format!(
                    "line {lineno}: expected `src dst` integers, got {t:?}"
                ))
            })
        };
        let s = parse(fields.next())?;
        let d = parse(fields.next())?;
        edges.push((s, d));
    }
    Ok(graph_from_edges(&edges))
}

const MAGIC: &[u8; 8] = b"RINGOGR1";

/// Writes the graph in the compact binary format (little-endian; magic,
/// node count, then per node its id and out-neighbor list, ascending).
pub fn save_binary(g: &DirectedGraph, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(g.node_count() as u64).to_le_bytes())?;
    let mut out = Vec::new();
    for id in g.node_ids() {
        w.write_all(&id.to_le_bytes())?;
        out.clear();
        out.extend(g.out_nbrs(id));
        out.sort_unstable();
        w.write_all(&(out.len() as u32).to_le_bytes())?;
        for &n in &out {
            w.write_all(&n.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Loads a graph written by [`save_binary`] (isolated nodes round-trip
/// through this format, unlike the text edge list). A file no writer
/// produced — a node count its length cannot hold, a repeated id, an
/// out-list out of order or naming a node the file does not hold — is
/// `InvalidData` naming the node; allocation is bounded by the file.
pub fn load_binary(path: &Path) -> io::Result<DirectedGraph> {
    let bytes = std::fs::read(path)?;
    let mut r = &bytes[..];
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a Ringo binary graph file".into()));
    }
    // Every node takes 12 bytes or more: a larger count is a lie, not a size.
    let n = read_u64(&mut r)?;
    if n > (r.len() / 12) as u64 {
        return Err(invalid(format!(
            "header claims {n} nodes in {} bytes",
            bytes.len()
        )));
    }
    let mut known = IntHashTable::with_capacity(n as usize);
    let mut ids = Vec::with_capacity(n as usize);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for _ in 0..n {
        let id = read_i64(&mut r)?;
        if known.insert(id, ()).is_some() {
            return Err(invalid(format!("node {id}: the id is repeated")));
        }
        ids.push(id);
        let first = edges.len();
        for _ in 0..read_u32(&mut r)? {
            let d = read_i64(&mut r)?;
            if edges.len() > first && edges[edges.len() - 1].1 >= d {
                return Err(invalid(format!(
                    "node {id}: out-list not strictly ascending"
                )));
            }
            edges.push((id, d));
        }
    }
    if let Some(&(s, d)) = edges.iter().find(|&&(_, d)| !known.contains(d)) {
        return Err(invalid(format!(
            "node {s}: out-neighbour {d} is not a node of the file"
        )));
    }
    ids.sort_unstable();
    edges.sort_unstable();
    Ok(from_sorted_edges(ids, &edges))
}

/// Builds a graph from raw edges (sequential sort-first; the parallel
/// variant lives in `ringo-convert` to keep this crate dependency-light).
/// Slots follow ascending id.
pub fn graph_from_edges(edges: &[(NodeId, NodeId)]) -> DirectedGraph {
    let mut fwd = edges.to_vec();
    fwd.sort_unstable();
    fwd.dedup();
    let mut ids: Vec<NodeId> = fwd.iter().flat_map(|&(s, d)| [s, d]).collect();
    ids.sort_unstable();
    ids.dedup();
    from_sorted_edges(ids, &fwd)
}

/// The graph on the nodes `ids` (ascending, distinct; node `k` in slot
/// `k`) with the edges `edges` (ascending, distinct, every endpoint in
/// `ids`).
fn from_sorted_edges(ids: Vec<NodeId>, edges: &[(NodeId, NodeId)]) -> DirectedGraph {
    let slot = |id: NodeId| ids.partition_point(|&x| x < id);
    let arcs: Vec<(usize, usize)> = edges.iter().map(|&(s, d)| (slot(s), slot(d))).collect();
    let mut out_off = vec![0usize; ids.len() + 1];
    let mut in_off = vec![0usize; ids.len() + 1];
    for &(s, d) in &arcs {
        out_off[s + 1] += 1;
        in_off[d + 1] += 1;
    }
    for k in 1..=ids.len() {
        out_off[k] += out_off[k - 1];
        in_off[k] += in_off[k - 1];
    }
    // Edges ascend by source, so each out-row is its run of targets in
    // order, and each in-row collects its sources in ascending order.
    let out_slab: Vec<u32> = arcs.iter().map(|&(_, d)| d as u32).collect();
    let mut in_slab = vec![0u32; arcs.len()];
    let mut at = in_off.clone();
    for &(s, d) in &arcs {
        in_slab[at[d]] = s as u32;
        at[d] += 1;
    }
    DirectedGraph::from_sorted_parts(ids, &in_off, in_slab.into(), &out_off, out_slab.into())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_i64(r: &mut impl Read) -> io::Result<i64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DirectedGraph {
        let mut g = DirectedGraph::new();
        for (s, d) in [(1, 2), (2, 3), (3, 1), (3, 3), (-5, 2)] {
            g.add_edge(s, d);
        }
        g
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ringo_gio_{}_{name}", std::process::id()))
    }

    /// Same nodes and edges; a loaded graph's slots follow ascending id,
    /// so its lists may be ordered differently from the saved graph's.
    fn assert_same(a: &DirectedGraph, b: &DirectedGraph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let sorted = |ids: crate::Nbrs<'_>| {
            let mut v: Vec<NodeId> = ids.collect();
            v.sort_unstable();
            v
        };
        for id in a.node_ids() {
            assert_eq!(
                sorted(a.out_nbrs(id)),
                sorted(b.out_nbrs(id)),
                "out of {id}"
            );
            assert_eq!(sorted(a.in_nbrs(id)), sorted(b.in_nbrs(id)), "in of {id}");
        }
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let p = tmp("text.txt");
        save_edge_list(&g, &p).unwrap();
        let back = load_edge_list(&p).unwrap();
        assert_same(&g, &back);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_roundtrip_keeps_isolated_nodes() {
        let mut g = sample();
        g.add_node(99);
        let p = tmp("bin.rg");
        save_binary(&g, &p).unwrap();
        let back = load_binary(&p).unwrap();
        assert_same(&g, &back);
        assert!(back.has_node(99));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn text_load_rejects_garbage() {
        let p = tmp("garbage.txt");
        std::fs::write(&p, "# ok\n1\t2\nnot numbers\n").unwrap();
        assert!(load_edge_list(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_load_rejects_wrong_magic() {
        let p = tmp("badmagic.rg");
        // 8 bytes of deliberately-wrong magic plus 8 bytes of padding so
        // the header read succeeds and rejection is on content, not size.
        // (Audited for the env-knob registry: the `RINGO________` tail is
        // not a `RINGO_*` knob — all-underscore tails are excluded, and
        // `NOT` glues onto the word anyway.)
        std::fs::write(&p, b"NOTRINGO________").unwrap();
        assert!(load_binary(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_load_rejects_truncation() {
        let g = sample();
        let p = tmp("trunc.rg");
        save_binary(&g, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load_binary(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    /// A binary file holding `nodes` exactly as given: `(id, out-list)`.
    fn binary_file(nodes: &[(NodeId, &[NodeId])]) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.extend((nodes.len() as u64).to_le_bytes());
        for (id, out) in nodes {
            b.extend(id.to_le_bytes());
            b.extend((out.len() as u32).to_le_bytes());
            out.iter().for_each(|n| b.extend(n.to_le_bytes()));
        }
        b
    }

    /// Loads `bytes` with `load`; the error must be `InvalidData` naming `what`.
    fn assert_invalid(load: fn(&Path) -> io::Result<DirectedGraph>, bytes: &[u8], what: &str) {
        let p = tmp("hostile");
        std::fs::write(&p, bytes).unwrap();
        let err = load(&p).expect_err(what);
        std::fs::remove_file(p).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().contains(what), "{err} names {what:?}");
    }

    #[test]
    fn binary_load_rejects_hostile_files_naming_the_node() {
        let mut huge = binary_file(&[]);
        huge[8..16].copy_from_slice(&(1u64 << 62).to_le_bytes());
        assert_invalid(load_binary, &huge, "4611686018427387904 nodes");
        let mut many = binary_file(&[(1, &[])]);
        many[8..16].copy_from_slice(&3u64.to_le_bytes());
        assert_invalid(load_binary, &many, "3 nodes");
        let dup = binary_file(&[(1, &[2]), (2, &[]), (1, &[])]);
        assert_invalid(load_binary, &dup, "node 1: the id is repeated");
        let unsorted = binary_file(&[(1, &[3, 2]), (2, &[]), (3, &[])]);
        assert_invalid(load_binary, &unsorted, "node 1: out-list not strictly");
        let repeated = binary_file(&[(1, &[2, 2]), (2, &[])]);
        assert_invalid(load_binary, &repeated, "node 1: out-list not strictly");
        let absent = binary_file(&[(1, &[2, 3]), (2, &[])]);
        assert_invalid(load_binary, &absent, "node 1: out-neighbour 3 is not");
        let names_absent_min = binary_file(&[(1, &[i64::MIN])]);
        assert_invalid(load_binary, &names_absent_min, "is not a node");
        // A degree the file cannot hold runs out of bytes, not memory.
        let mut deep = binary_file(&[(1, &[])]);
        deep[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        let p = tmp("deep.rg");
        std::fs::write(&p, &deep).unwrap();
        assert_eq!(
            load_binary(&p).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn loaders_take_i64_min_like_any_id() {
        let p = tmp("min.txt");
        std::fs::write(&p, format!("1 2\n{} 2\n# x\n3\t{}\n", i64::MIN, i64::MIN)).unwrap();
        let g = load_edge_list(&p).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.in_nbrs(2), &[i64::MIN, 1], "slots follow ascending id");
        assert!(g.has_edge(3, i64::MIN));
        let mut h = g.clone();
        h.add_node(i64::MIN + 1);
        save_binary(&h, &p).unwrap();
        assert_same(&h, &load_binary(&p).unwrap());
        std::fs::remove_file(p).ok();
    }

    /// Seeded single-byte mutations (truncate, delete, insert, overwrite)
    /// of a saved file: every load is `Ok` or `Err`, never a panic.
    fn fuzz(saved: &[u8], load: fn(&Path) -> io::Result<DirectedGraph>, seed: u64) -> (u32, u32) {
        let mut state = seed;
        let mut below = |n: usize| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let edits = b"\t\n #-0123456789\x00\x01\x7f\x80\xff";
        let p = tmp(&format!("fuzz{seed}"));
        let (mut ok, mut err) = (0, 0);
        for _ in 0..1_500 {
            let mut file = saved.to_vec();
            let at = below(file.len());
            match below(4) {
                0 => file.truncate(at),
                1 => drop(file.remove(at)),
                2 => file.insert(at, edits[below(edits.len())]),
                _ => file[at] = edits[below(edits.len())],
            }
            std::fs::write(&p, &file).unwrap();
            match load(&p) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        std::fs::remove_file(p).ok();
        (ok, err)
    }

    #[test]
    fn single_byte_mutations_of_saved_files_never_panic() {
        let mut g = sample();
        for k in 0..40 {
            g.add_edge(k * 7 - 90, (k * 13) % 50);
        }
        g.add_node(i64::MAX);
        let p = tmp("fuzz_base");
        save_binary(&g, &p).unwrap();
        let (ok, err) = fuzz(&std::fs::read(&p).unwrap(), load_binary, 22);
        assert!(ok > 20 && err > 500, "binary: {ok} ok, {err} err");
        save_edge_list(&g, &p).unwrap();
        let (ok, err) = fuzz(&std::fs::read(&p).unwrap(), load_edge_list, 23);
        assert!(ok > 500 && err > 20, "text: {ok} ok, {err} err");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn graph_from_edges_matches_incremental() {
        let edges = [(4i64, 1i64), (1, 2), (2, 4), (4, 1), (2, 2)];
        let fast = graph_from_edges(&edges);
        let mut inc = DirectedGraph::new();
        for &(s, d) in &edges {
            inc.add_edge(s, d);
        }
        assert_same(&fast, &inc);
    }
}
