"""Every metric the benchmark prints: unit, direction and, for the
end-to-end ones, the regression bound.  ``BENCHMARK.json`` mirrors this
table; ``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: A seed kept out of tuning: a later change that claims a gain shows
#: that the claim also holds on this seed.
HELD_OUT_SEED = 7919

#: (name, unit, better, bound) -- printed with ``--trace 0``.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("host_us_per_io", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("sim_mb_s", "MB/s", "higher", 0.1),
    ("sim_write_mean_us", "us", "lower", 0.2),
    ("sim_write_p99_us", "us", "lower", 0.2),
    ("sim_read_mean_us", "us", "lower", 0.1),
    ("sim_read_p99_us", "us", "lower", 0.15),
    ("write_amp", "ratio", "lower", 0.1),
]

LAYER_EXTRAS: Dict[str, List[Tuple[str, str, str]]] = {
    "sim": [("spawns_per_io", "1/io", "lower"),
            ("acquires_per_io", "1/io", "lower"),
            ("acquire_wait_us", "us", "lower")],
    "nand": [("programs_per_io", "1/io", "lower"),
             ("page_reads_per_io", "1/io", "lower"),
             ("header_reads_per_io", "1/io", "lower"),
             ("erases_per_io", "1/io", "lower"),
             ("queue_wait_us", "us", "lower"),
             ("die_busy_frac", "ratio", "lower")],
    "ftl.log": [("appends_per_io", "1/io", "lower"),
                ("append_wait_us", "us", "lower")],
    "ftl.cleaner": [("segments_per_kio", "1/kio", "lower"),
                    ("copies_per_segment", "count", "lower"),
                    ("stillborn_frac", "ratio", "higher"),
                    ("busy_frac", "ratio", "lower")],
    "ftl.map": [("hit_rate", "ratio", "higher"),
                ("faults_per_io", "1/io", "lower"),
                ("evictions_per_io", "1/io", "lower"),
                ("writebacks_per_io", "1/io", "lower"),
                ("fault_wait_us", "us", "lower")],
    "ftl.vsl": [("quiesce_hold_us", "us", "lower"),
                ("readahead_hit_rate", "ratio", "higher")],
    "core": [("cow_copies_per_kio", "1/kio", "lower"),
             ("live_epochs_mean", "count", "lower"),
             ("leaked_valid_bits", "count", "lower"),
             ("snap_create_p90_us", "us", "lower")],
    "core.activation": [("pages_scanned", "count", "lower"),
                        ("segments_skipped_frac", "ratio", "higher"),
                        ("residue_hit_rate", "ratio", "higher"),
                        ("limiter_sleep_frac", "ratio", "lower"),
                        ("activation_p50_ms", "ms", "lower")],
    "replicate": [("records_per_send", "count", "lower"),
                  ("blocks_per_send", "count", "lower"),
                  ("send_p50_ms", "ms", "lower")],
    "bench": [("trace_overhead_frac", "ratio", "lower"),
              ("failed_op_frac", "ratio", "lower")],
}


def per_layer() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every ``--trace 1`` metric, in order."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYER_EXTRAS:
        out.append((f"{layer}.calls_per_io", "1/io", "lower"))
        out.append((f"{layer}.self_us_per_io", "us", "lower"))
    for layer, extras in LAYER_EXTRAS.items():
        out.extend((f"{layer}.{name}", unit, better)
                   for name, unit, better in extras)
    return out


UNITS: Dict[str, str] = {name: unit for name, unit, _b, _bound in END_TO_END}
UNITS.update({name: unit for name, unit, _b in per_layer()})
