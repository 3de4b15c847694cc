//! Criterion micro-benchmarks of the simulator substrate: the hot paths
//! behind the figure harnesses.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use maco_isa::params::GemmParams;
use maco_isa::{Asid, Precision};
use maco_mem::cache::SetAssocCache;
use maco_mmae::systolic::SystolicArray;
use maco_mmae::tiling::block_passes;
use maco_mmae::translate::TranslationContext;
use maco_mmae::{Mmae, MmaeConfig};
use maco_sim::SimDuration;
use maco_vm::matlb::TileAccessPattern;
use maco_vm::page_table::{AddressSpace, PageFlags};
use maco_vm::tlb::{Tlb, TlbEntry};
use maco_vm::walker::PageTableWalker;
use maco_vm::{PhysAddr, VirtAddr};

fn bench_systolic(c: &mut Criterion) {
    let sa = SystolicArray::new(4, 4);
    let a = vec![1.5f64; 32 * 32];
    let b = vec![0.5f64; 32 * 32];
    let cc = vec![0.25f64; 32 * 32];
    c.bench_function("systolic/tile_matmul_32_fp64", |bench| {
        bench.iter(|| sa.tile_matmul(black_box(&a), &b, &cc, 32, 32, 32, Precision::Fp64))
    });
    c.bench_function("systolic/tile_cycles_64", |bench| {
        bench.iter(|| sa.tile_cycles(black_box(64), 64, 64, Precision::Fp32))
    });
}

fn bench_tlb(c: &mut Criterion) {
    c.bench_function("tlb/lookup_hit_1024", |bench| {
        let mut tlb = Tlb::new(1024);
        let asid = Asid::new(1);
        for vpn in 0..1024u64 {
            tlb.insert(
                asid,
                vpn,
                TlbEntry {
                    frame: vpn,
                    flags: PageFlags::rw(),
                },
            );
        }
        let mut vpn = 0u64;
        bench.iter(|| {
            vpn = (vpn + 1) % 1024;
            black_box(tlb.lookup(asid, vpn))
        })
    });
    // One transplant of the cross-node translation mirror: a 1024-entry
    // sTLB holding `live` entries cloned under another ASID. Full is what
    // the mirror's cost gate charges; nearly empty shows the part of the
    // clone that follows capacity rather than occupancy.
    for (name, live) in [
        ("tlb/clone_retagged_1024", 1024u64),
        ("tlb/clone_retagged_1024_live16", 16),
    ] {
        c.bench_function(name, |bench| {
            let mut tlb = Tlb::new(1024);
            for vpn in 0..live {
                tlb.insert(
                    Asid::new(1),
                    vpn,
                    TlbEntry {
                        frame: vpn,
                        flags: PageFlags::rw(),
                    },
                );
            }
            bench.iter(|| black_box(tlb.clone_retagged(Asid::new(2))))
        });
    }
    c.bench_function("tlb/thrash_insert", |bench| {
        let mut tlb = Tlb::new(48);
        let asid = Asid::new(1);
        let mut vpn = 0u64;
        bench.iter(|| {
            vpn += 1;
            tlb.insert(
                asid,
                vpn,
                TlbEntry {
                    frame: vpn,
                    flags: PageFlags::rw(),
                },
            )
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/l2_streaming", |bench| {
        let mut l2 = SetAssocCache::new(512 * 1024, 8);
        let mut addr = 0u64;
        bench.iter(|| {
            addr += 64;
            black_box(l2.read(addr))
        })
    });
}

fn bench_page_table(c: &mut Criterion) {
    c.bench_function("page_table/translate", |bench| {
        let mut space = AddressSpace::new();
        for i in 0..1024u64 {
            space
                .map(
                    VirtAddr::new(i * 4096),
                    PhysAddr::new(0x10_0000 + i * 4096),
                    PageFlags::rw(),
                )
                .unwrap();
        }
        let mut i = 0u64;
        bench.iter(|| {
            i = (i + 1) % 1024;
            black_box(space.translate(VirtAddr::new(i * 4096 + 8)).unwrap())
        })
    });
}

fn bench_matlb(c: &mut Criterion) {
    c.bench_function("matlb/predict_64_rows", |bench| {
        let tile = TileAccessPattern::new(VirtAddr::new(0), 64, 512, 8192);
        bench.iter(|| black_box(tile.predicted_pages().count()))
    });
}

/// Exact demand-mode replay of the first block pass of an `n³` GEMM
/// through a warm 1024-entry sTLB — what the translation mirror saves
/// when it transplants instead (predictive passes are closed-form and
/// never mirrored). Prints the pass's page touches so the
/// per-touch cost can be set against `tlb/clone_retagged_1024`.
fn bench_translate_pass(c: &mut Criterion, name: &str, n: u64, precision: Precision) {
    let e = precision.bytes();
    let bases = [
        0x1_0000_0000u64,
        0x2_0000_0000,
        0x3_0000_0000,
        0x4_0000_0000,
    ];
    let mut space = AddressSpace::new();
    for (i, &base) in bases.iter().enumerate() {
        space
            .map_range(
                VirtAddr::new(base),
                PhysAddr::new(0x10_0000_0000 + i as u64 * 0x1_0000_0000),
                n * n * e,
                PageFlags::rw(),
            )
            .unwrap();
    }
    let params = GemmParams::new(bases[0], bases[1], bases[2], bases[3], n, n, n, precision)
        .expect("valid GEMM");
    let mmae = Mmae::new(MmaeConfig::default());
    let pass = block_passes(n, n, n, &mmae.config().tiling)[0];
    let mut stlb = Tlb::new(1024);
    let mut walker = PageTableWalker::new(2);
    let mut ctx = TranslationContext {
        asid: Asid::new(1),
        space: &space,
        stlb: &mut stlb,
        walker: &mut walker,
        prediction: false,
        walk_read_latency: SimDuration::from_ps(1_550),
    };
    let touches = mmae.translate_pass(&params, &pass, &mut ctx).unwrap().pages;
    println!("{name}: {touches} page touches per pass");
    c.bench_function(name, |bench| {
        bench.iter(|| black_box(mmae.translate_pass(&params, &pass, &mut ctx).unwrap()))
    });
}

fn bench_translate(c: &mut Criterion) {
    bench_translate_pass(c, "mmae/translate_pass_64_fp32", 64, Precision::Fp32);
    bench_translate_pass(c, "mmae/translate_pass_1024_fp64", 1024, Precision::Fp64);
}

fn bench_system(c: &mut Criterion) {
    use maco_core::system::{MacoSystem, SystemConfig};
    c.bench_function("system/single_node_gemm_256", |bench| {
        bench.iter(|| {
            let mut sys = MacoSystem::new(SystemConfig::single_node());
            black_box(
                sys.run_parallel_gemm(256, 256, 256, Precision::Fp64)
                    .unwrap()
                    .avg_efficiency(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_systolic,
    bench_tlb,
    bench_cache,
    bench_page_table,
    bench_matlb,
    bench_translate,
    bench_system
);
criterion_main!(benches);
