"""Tests for device compute timing, PCIe transfers, cache and memory models."""

import pytest

from repro.errors import DeviceOutOfMemory, HardwareError
from repro.hardware.cache import locality_factor
from repro.hardware.device import ComputeDevice, OpCounters
from repro.hardware.memory import DeviceMemoryManager
from repro.hardware.pcie import dma_transfer_time, paged_transfer_time
from repro.hardware.spec import GB, CpuSpec, MicSpec, PcieSpec, paper_machine


class TestSpecs:
    def test_paper_machine_values(self):
        machine = paper_machine()
        assert machine.mic.cores == 61
        assert machine.mic.threads_used == 200
        assert machine.mic.memory_capacity == 8 * int(GB)
        assert machine.cpu.cores == 8
        assert machine.cpu.clock_ghz == 2.2

    def test_single_mic_thread_slower_than_cpu_thread(self):
        """Section II-B: 'the performance of a single MIC thread is much
        worse than a single CPU thread'."""
        assert MicSpec().thread_flops < 0.2 * CpuSpec().thread_flops

    def test_usable_memory_below_capacity(self):
        mic = MicSpec()
        assert mic.usable_memory < mic.memory_capacity


class TestComputeTime:
    def setup_method(self):
        self.mic = ComputeDevice(MicSpec())
        self.cpu = ComputeDevice(CpuSpec())

    def test_more_work_takes_longer(self):
        small = OpCounters(flops=1e6)
        large = OpCounters(flops=1e8)
        assert self.mic.compute_time(large, 1e6) > self.mic.compute_time(small, 1e6)

    def test_parallel_faster_than_serial(self):
        work = OpCounters(flops=1e9)
        parallel = self.mic.compute_time(work, parallel_iterations=1e6)
        serial = self.mic.compute_time(work, serial=True)
        assert parallel < serial / 50

    def test_vectorization_speedup(self):
        work = OpCounters(flops=1e9)
        scalar = self.mic.compute_time(work, 1e6, vectorizable=False)
        vector = self.mic.compute_time(work, 1e6, vectorizable=True)
        assert 3.0 < scalar / vector < 16.0

    def test_memory_bound_loop_gains_little_from_simd(self):
        work = OpCounters(flops=1e6, loads=1e8, bytes_read=4e9)
        scalar = self.mic.compute_time(work, 1e6, vectorizable=False)
        vector = self.mic.compute_time(work, 1e6, vectorizable=True)
        # The memory term dominates both; vectorization only removes the
        # (tiny) serialized compute term on the in-order cores.
        assert vector <= scalar
        assert vector == pytest.approx(scalar, rel=0.01)

    def test_in_order_scalar_serializes_memory_and_compute(self):
        work = OpCounters(flops=4e9, loads=1e9, bytes_read=4e9)
        mic_time = self.mic.compute_time(work, 1e7, vectorizable=False)
        t_comp = work.flops / (200 * self.mic.spec.thread_flops)
        t_mem = work.bytes_read / self.mic.spec.mem_bandwidth
        assert mic_time == pytest.approx(t_comp + t_mem)

    def test_out_of_order_cpu_overlaps(self):
        work = OpCounters(flops=4e9, loads=1e9, bytes_read=4e9)
        cpu_time = self.cpu.compute_time(work, 1e7, vectorizable=False)
        spec = self.cpu.spec
        t_comp = work.flops / (spec.threads_used * spec.thread_flops)
        t_mem = work.bytes_read / spec.mem_bandwidth
        assert cpu_time == pytest.approx(max(t_comp, t_mem))

    def test_irregular_access_penalty(self):
        regular = OpCounters(loads=1e8, bytes_read=4e9)
        irregular = OpCounters(
            loads=1e8, bytes_read=4e9, irregular_accesses=1e8
        )
        assert self.mic.compute_time(irregular, 1e6) > 5 * self.mic.compute_time(
            regular, 1e6
        )

    def test_low_trip_count_limits_threads(self):
        assert self.mic.effective_threads(10) <= 10
        assert self.mic.effective_threads(1e9) == 200

    def test_cpu_beats_mic_on_serial_code(self):
        """Native-mode motivation: serial code belongs on the host."""
        work = OpCounters(flops=1e9)
        assert self.cpu.compute_time(work, serial=True) < self.mic.compute_time(
            work, serial=True
        )

    def test_mic_beats_cpu_on_wide_parallel_vector_work(self):
        """Intrinsically parallel + vectorizable loops are the MIC's case."""
        work = OpCounters(flops=1e11)
        mic_t = self.mic.compute_time(work, 1e7, vectorizable=True)
        cpu_t = self.cpu.compute_time(work, 1e7, vectorizable=True)
        assert mic_t < cpu_t

    def test_zero_work_zero_time(self):
        assert self.mic.compute_time(OpCounters(), 100) == 0.0


class TestPcie:
    def test_latency_floor(self):
        pcie = PcieSpec()
        assert dma_transfer_time(1, pcie) >= pcie.latency

    def test_bandwidth_dominates_large_transfers(self):
        pcie = PcieSpec()
        t = dma_transfer_time(6 * GB, pcie)
        assert t == pytest.approx(1.0, rel=0.01)

    def test_zero_bytes_free(self):
        assert dma_transfer_time(0, PcieSpec()) == 0.0
        assert paged_transfer_time(0, PcieSpec()) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            dma_transfer_time(-1, PcieSpec())
        with pytest.raises(ValueError):
            paged_transfer_time(-1, PcieSpec())

    def test_paged_much_slower_than_dma(self):
        """The Section V observation that motivates the arena mechanism."""
        pcie = PcieSpec()
        nbytes = 83 * (1 << 20)  # ferret's 83 MB of shared data
        assert paged_transfer_time(nbytes, pcie) > 5 * dma_transfer_time(nbytes, pcie)

    def test_paged_cost_scales_with_pages(self):
        pcie = PcieSpec()
        one = paged_transfer_time(pcie.page_bytes, pcie)
        ten = paged_transfer_time(10 * pcie.page_bytes, pcie)
        assert ten == pytest.approx(10 * one)


class TestLocalityFactor:
    def test_regular_is_full_bandwidth(self):
        assert locality_factor(0.0) == 1.0

    def test_fully_irregular_is_element_over_line(self):
        assert locality_factor(1.0, element_bytes=4, line_bytes=64) == pytest.approx(
            4 / 64
        )

    def test_monotonic(self):
        values = [locality_factor(f / 10) for f in range(11)]
        assert values == sorted(values, reverse=True)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            locality_factor(1.5)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            locality_factor(0.5, element_bytes=128, line_bytes=64)


class TestDeviceMemory:
    def test_allocate_and_free(self):
        mm = DeviceMemoryManager(capacity=1000)
        mm.allocate("A", 400)
        assert mm.in_use == 400
        mm.free("A")
        assert mm.in_use == 0

    def test_oom_raises(self):
        mm = DeviceMemoryManager(capacity=1000)
        mm.allocate("A", 800)
        with pytest.raises(DeviceOutOfMemory):
            mm.allocate("B", 300)

    def test_peak_tracking(self):
        mm = DeviceMemoryManager(capacity=1000)
        mm.allocate("A", 600)
        mm.free("A")
        mm.allocate("B", 100)
        assert mm.peak == 600

    def test_scale_applied(self):
        mm = DeviceMemoryManager(capacity=10_000, scale=10.0)
        mm.allocate("A", 100)
        assert mm.in_use == 1000

    def test_scaled_oom(self):
        mm = DeviceMemoryManager(capacity=1000, scale=100.0)
        with pytest.raises(DeviceOutOfMemory):
            mm.allocate("A", 11)

    def test_realloc_grows_in_place(self):
        mm = DeviceMemoryManager(capacity=1000)
        mm.allocate("A", 100)
        mm.allocate("A", 300)
        assert mm.in_use == 300
        assert mm.alloc_count == 1

    def test_realloc_never_shrinks(self):
        mm = DeviceMemoryManager(capacity=1000)
        mm.allocate("A", 300)
        mm.allocate("A", 100)
        assert mm.size_of("A") == 300

    def test_free_unknown_raises(self):
        with pytest.raises(HardwareError):
            DeviceMemoryManager(capacity=10).free("nope")

    def test_free_all(self):
        mm = DeviceMemoryManager(capacity=1000)
        mm.allocate("A", 100)
        mm.allocate("B", 100)
        mm.free_all()
        assert mm.in_use == 0
        assert not mm.holds("A")


def test_opcounters_copy_and_as_dict():
    counters = OpCounters(flops=3, loads=2, bytes_read=16)
    clone = counters.copy()
    clone.flops += 1
    assert counters.flops == 3
    assert counters.as_dict()["bytes_read"] == 16
    assert set(counters.as_dict()) >= {
        "flops", "int_ops", "loads", "stores", "bytes_read",
        "bytes_written", "irregular_accesses", "calls", "branches",
    }
