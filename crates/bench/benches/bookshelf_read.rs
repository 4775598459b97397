//! Criterion bench: `bookshelf::read_aux` on the newblue6 stand-in, the
//! parse-and-build layer behind the benchmark's `setup_s`. The circuit is
//! written once to a temporary directory (3.8 MB of Bookshelf text); each
//! iteration reads, parses and builds it from there.

use criterion::{criterion_group, criterion_main, Criterion};
use mep_netlist::bookshelf::{read_aux, write_dir};
use mep_netlist::synth;
use std::hint::black_box;

fn bench_read_aux(c: &mut Criterion) {
    let spec = synth::spec_by_name("newblue6").expect("newblue6 is in the catalogue");
    let circuit = synth::generate(&spec);
    let dir = std::env::temp_dir().join(format!("mep_bookshelf_read_{}", std::process::id()));
    write_dir(&dir, &circuit).expect("write the Bookshelf files");
    let aux = dir.join("newblue6.aux");

    let mut group = c.benchmark_group("bookshelf_read");
    group.bench_function("read_aux_newblue6", |b| {
        b.iter(|| {
            let read = read_aux(black_box(&aux), spec.target_density).expect("read_aux");
            black_box(read.design.netlist.num_pins())
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_read_aux);
criterion_main!(benches);
