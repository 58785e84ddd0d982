//! Property tests of the durable checkpoint format — the merged `.sfcc`
//! container written through [`CheckpointStore`]: arbitrary states survive
//! write → restore bit for bit on any decomposition, and no single damaged
//! byte ever comes back as a restored state. Plus every container decoder
//! facing a CRC-valid artifact that lies: a count of `u32::MAX`/`u64::MAX`
//! items or a chunk extent past `u64::MAX` is a typed error, never an
//! allocation sized by the lie.

use std::fs;
use std::io::Cursor;
use std::sync::OnceLock;

use proptest::prelude::*;
use specfem_io::checkpoint::load_global;
use specfem_io::container::{crc32, put_u32, put_u64, CONTAINER_MAGIC, CONTAINER_SCHEMA_VERSION};
use specfem_io::dossier::DOSSIER_PAYLOAD_VERSION;
use specfem_io::result_cache::{decode_result, encode_result};
use specfem_io::{
    decode_mesh, encode_mesh, read_crash_dossier, write_crash_dossier, ArtifactError, CachedResult,
    CheckpointStore, ContainerReader, ContainerWriter, DossierIncident, ResultKey,
};
use specfem_mesh::{GlobalMesh, LocalMesh, MeshParams, Partition};
use specfem_model::Prem;
use specfem_obs::FlightJournal;
use specfem_solver::{CheckpointState, Seismogram};

fn gm() -> &'static GlobalMesh {
    static MESH: OnceLock<GlobalMesh> = OnceLock::new();
    MESH.get_or_init(|| GlobalMesh::build(&MeshParams::new(4, 1), &Prem::isotropic_no_ocean()))
}

const ATTEN_PER: usize = 4;

/// A state whose every field value is a function of the *global* point or
/// element id and `vals`, so any decomposition can be checked against it.
fn synth(mesh: &LocalMesh, world: usize, step: usize, vals: &[f32]) -> CheckpointState {
    let at = |i: usize| vals[i % vals.len()];
    let v3 = |k: usize| -> Vec<f32> {
        mesh.global_ids
            .iter()
            .flat_map(|&g| (0..3).map(move |c| (g as usize * 3 + c) * 7 + k))
            .map(at)
            .collect()
    };
    let v1 = |k: usize| -> Vec<f32> {
        mesh.global_ids
            .iter()
            .map(|&g| at(g as usize * 5 + k))
            .collect()
    };
    CheckpointState {
        rank: mesh.rank,
        nranks: world,
        next_step: step,
        dt: 0.25,
        nglob: mesh.nglob,
        global_ids: mesh.global_ids.clone(),
        element_global: mesh.element_global.clone(),
        displ: v3(0),
        veloc: v3(1),
        accel: v3(2),
        chi: v1(0),
        chi_dot: v1(1),
        chi_ddot: v1(2),
        atten_memory: Some(
            mesh.element_global
                .iter()
                .flat_map(|&ge| (0..ATTEN_PER).map(move |i| ge as usize * ATTEN_PER + i))
                .map(at)
                .collect(),
        ),
        records: vec![(
            format!("ST{}", mesh.rank),
            vec![[at(mesh.rank), f32::MIN_POSITIVE, -0.0]; 2],
        )],
        energy: vec![(0, 1.5, -2.5)],
        snapshots: vec![v3(3)],
        flops: 100 + mesh.rank as u64,
    }
}

fn fresh_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("specfem_io_ft_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    CheckpointStore::new(dir).unwrap()
}

fn write_generation(store: &CheckpointStore, world: usize, step: usize, vals: &[f32]) {
    let part = Partition::balanced(gm(), world);
    for rank in 0..world {
        let mesh = part.extract(gm(), rank);
        store
            .sink(rank)
            .write(&synth(&mesh, world, step, vals))
            .unwrap();
    }
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary field values written by one world come back bit-identical
    /// on another: every restored rank holds exactly what a rank of that
    /// decomposition would have captured itself.
    #[test]
    fn checkpoint_roundtrip_is_lossless(
        vals in prop::collection::vec(-1e12f32..1e12, 1..40),
        write_world in 1usize..4,
        restore_world in 1usize..5,
        step in 1usize..100_000,
    ) {
        let store = fresh_store("roundtrip");
        write_generation(&store, write_world, step, &vals);
        let part = Partition::balanced(gm(), restore_world);
        for rank in 0..restore_world {
            let mesh = part.extract(gm(), rank);
            let want = synth(&mesh, restore_world, step, &vals);
            let got = store
                .restore_latest_for(rank, &mesh)
                .expect("a clean generation restores")
                .expect("the generation is on disk");
            prop_assert_eq!(got.next_step, step);
            prop_assert_eq!(got.dt.to_bits(), want.dt.to_bits());
            prop_assert_eq!(got.nglob, mesh.nglob);
            prop_assert_eq!(bits(&got.displ), bits(&want.displ));
            prop_assert_eq!(bits(&got.veloc), bits(&want.veloc));
            prop_assert_eq!(bits(&got.accel), bits(&want.accel));
            prop_assert_eq!(bits(&got.chi), bits(&want.chi));
            prop_assert_eq!(bits(&got.chi_dot), bits(&want.chi_dot));
            prop_assert_eq!(bits(&got.chi_ddot), bits(&want.chi_ddot));
            prop_assert_eq!(
                bits(got.atten_memory.as_ref().unwrap()),
                bits(want.atten_memory.as_ref().unwrap())
            );
            prop_assert_eq!(bits(&got.snapshots[0]), bits(&want.snapshots[0]));
            // Records and energy travel whole, whoever wrote them.
            prop_assert_eq!(got.records.len(), write_world);
            prop_assert_eq!(got.records[0].1[0][1].to_bits(), f32::MIN_POSITIVE.to_bits());
            prop_assert_eq!(got.records[0].1[0][2].to_bits(), (-0.0f32).to_bits());
            prop_assert_eq!(&got.energy, &want.energy);
        }
        let _ = fs::remove_dir_all(store.dir());
    }
}

/// Two clean generations (steps 10 and 20) written once; each case damages
/// its own copy of the newer one.
fn pristine() -> &'static (Vec<u8>, Vec<u8>) {
    static FILES: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    FILES.get_or_init(|| {
        let store = fresh_store("pristine");
        for step in [10, 20] {
            write_generation(&store, 2, step, &[1.0, -2.5, 3.25]);
        }
        let read = |step: usize| fs::read(store.dir().join(format!("step{step:09}.sfcc"))).unwrap();
        let files = (read(10), read(20));
        let _ = fs::remove_dir_all(store.dir());
        files
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any single byte of a checkpoint container is detected:
    /// loading it is a typed error, and a restore falls back to the
    /// previous generation instead of returning the damaged one.
    #[test]
    fn checkpoint_corruption_never_decodes(
        region in 0usize..3,
        flip_pos in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let (older, newer) = pristine();
        // Aim a third of the cases each at the 16-byte header, the chunk
        // payloads, and the directory + footer (whose offset the footer
        // itself records), which a uniform draw would almost never hit.
        let len = newer.len();
        let dir_off = u64::from_le_bytes(newer[len - 12..len - 4].try_into().unwrap()) as usize;
        let (lo, hi) = [(0, 16), (16, dir_off), (dir_off, len)][region];
        let pos = lo + ((hi - lo - 1) as f64 * flip_pos) as usize;
        let mut damaged = newer.clone();
        damaged[pos] ^= flip_mask;

        // A store opened on the damaged directory, as after a restart.
        let store = fresh_store(&format!("corrupt_{region}_{pos}_{flip_mask}"));
        fs::write(store.dir().join("step000000010.sfcc"), older).unwrap();
        fs::write(store.dir().join("step000000020.sfcc"), &damaged).unwrap();

        prop_assert!(
            store.load_global(20).is_err(),
            "byte {} ^ {:#04x} of {} loaded as a valid generation", pos, flip_mask, len
        );
        let mesh = Partition::balanced(gm(), 1).extract(gm(), 0);
        match store.restore_latest_for(0, &mesh) {
            Ok(Some(state)) => prop_assert_eq!(state.next_step, 10, "restored the damaged generation"),
            Ok(None) => prop_assert!(false, "a readable generation was skipped"),
            Err(e) => prop_assert!(e.0.contains("no readable checkpoint"), "{}", e),
        }
        let _ = fs::remove_dir_all(store.dir());
    }
}

/// `bytes` re-sealed with chunk `name` replaced by `payload` and the
/// payload version raised by `bump`: every CRC is valid, whatever the
/// chunk now claims.
fn reseal(bytes: &[u8], bump: u32, name: &str, payload: &[u8]) -> Vec<u8> {
    let mut r = ContainerReader::new(Cursor::new(bytes), "lying").unwrap();
    let version = r.payload_version() + bump;
    let mut w = ContainerWriter::new(Cursor::new(Vec::new()), "lying", r.kind(), version).unwrap();
    for chunk in r.chunk_names() {
        let kept = r.chunk(&chunk).unwrap();
        w.chunk(&chunk, if chunk == name { payload } else { &kept })
            .unwrap();
    }
    w.finish().unwrap().0.into_inner()
}

fn assert_format_error<T: std::fmt::Debug>(what: &str, r: Result<T, ArtifactError>) {
    match r {
        Err(ArtifactError::Format { .. }) => {}
        other => panic!("{what}: expected a format error, got {other:?}"),
    }
}

/// A container whose one directory entry reads `(name, offset, len)`
/// over `body`, behind a directory CRC recomputed to match.
fn hand_built(body: &[u8], count: u32, offset: u64, len: u64) -> Vec<u8> {
    let mut out = CONTAINER_MAGIC.to_vec();
    put_u32(&mut out, CONTAINER_SCHEMA_VERSION);
    out.extend_from_slice(b"TEST");
    put_u32(&mut out, 1);
    out.extend_from_slice(body);
    let dir_offset = out.len() as u64;
    let mut dir = Vec::new();
    put_u32(&mut dir, count);
    dir.extend_from_slice(&1u16.to_le_bytes());
    dir.push(b'x');
    put_u64(&mut dir, offset);
    put_u64(&mut dir, len);
    put_u32(&mut dir, crc32(body));
    out.extend_from_slice(&dir);
    put_u32(&mut out, crc32(&dir));
    put_u64(&mut out, dir_offset);
    out.extend_from_slice(&CONTAINER_MAGIC);
    out
}

#[test]
fn container_directory_that_lies_is_a_format_error() {
    let open = |bytes: Vec<u8>| ContainerReader::new(Cursor::new(bytes), "hand-built");
    let mut honest = open(hand_built(b"abc", 1, 16, 3)).unwrap();
    assert_eq!(honest.chunk("x").unwrap(), b"abc");
    // offset + len wraps past u64::MAX to 0, inside the file.
    assert_format_error(
        "wrapping extent",
        open(hand_built(b"abc", 1, 16, 0u64.wrapping_sub(16))),
    );
    assert_format_error("entry count", open(hand_built(b"abc", u32::MAX, 16, 3)));
}

#[test]
fn checkpoint_record_and_energy_counts_that_lie_are_format_errors() {
    let (_, newer) = pristine();
    let path = std::env::temp_dir().join(format!("specfem_io_lying_{}.sfcc", std::process::id()));
    let mut records = Vec::new();
    put_u32(&mut records, u32::MAX);
    let mut energy = Vec::new();
    put_u64(&mut energy, u64::MAX);
    for (name, payload) in [("records", records), ("energy", energy)] {
        fs::write(&path, reseal(newer, 0, name, &payload)).unwrap();
        assert_format_error(name, load_global(&path));
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn mesh_layer_count_that_lies_is_a_format_error() {
    let valid = encode_mesh(gm(), 7);
    let mut layers = Vec::new();
    put_u64(&mut layers, u64::MAX);
    assert_format_error(
        "layers",
        decode_mesh(&reseal(&valid, 0, "layers", &layers), Some(7)),
    );
}

#[test]
fn result_record_count_that_lies_is_a_format_error() {
    let key = ResultKey(0x1234);
    let result = CachedResult {
        seismograms: vec![Seismogram {
            station: "ST".into(),
            dt: 0.5,
            data: vec![[1.0, 2.0, 3.0]; 4],
        }],
        element_steps: 10,
    };
    let valid = encode_result(key, &result);
    let mut meta = Vec::new();
    put_u64(&mut meta, key.0);
    put_u64(&mut meta, u64::MAX);
    put_u64(&mut meta, 10);
    assert_format_error(
        "nrec",
        decode_result(&reseal(&valid, 0, "meta", &meta), key),
    );
}

#[test]
fn dossier_journal_count_and_newer_version_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("specfem_io_lying_dossier_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let incident = DossierIncident {
        class: "health".into(),
        detail: "lying journal".into(),
        rank: Some(0),
        step: None,
        trace_id: None,
        world: 1,
    };
    let journal = FlightJournal {
        capacity: 16,
        ..Default::default()
    };
    let path = write_crash_dossier(&dir, &incident, &[journal]).unwrap();
    let valid = fs::read(&path).unwrap();
    let mut lying = Vec::new();
    for v in [0, 16, 0] {
        put_u64(&mut lying, v); // rank, capacity, dropped
    }
    put_u32(&mut lying, u32::MAX);
    fs::write(&path, reseal(&valid, 0, "journal_0", &lying)).unwrap();
    assert_format_error("journal", read_crash_dossier(&path));

    fs::write(&path, reseal(&valid, 1, "no such chunk", &[])).unwrap();
    match read_crash_dossier(&path) {
        Err(ArtifactError::Version { found, .. }) => assert_eq!(found, DOSSIER_PAYLOAD_VERSION + 1),
        other => panic!("expected a version error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}
