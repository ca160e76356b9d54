from tracer import layer_totals, self_times


def span(sid, name, start, end, parent=None, counts=None):
    return [sid, name, start, end, parent, counts]


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "geometry.circle", 1.0, 3.0, parent=0),
        span(2, "counting.count_par_t", 4.0, 8.0, parent=0),
        span(3, "geometry.difference_table", 5.0, 6.0, parent=2, counts={"pairs": 6}),
        span(4, "geometry.difference_table", 6.5, 7.0, parent=2, counts={"pairs": 4}),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 2.5, 3: 1.0, 4: 0.5}
    totals = layer_totals(spans)
    assert totals["geometry.difference_table"] == {"calls": 2, "self_ms": 1500.0,
                                                   "pairs": 10}
    assert totals["cli.main"] == {"calls": 1, "self_ms": 4000.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "a", 1.0, 5.0, parent=0),
        span(2, "b", 3.0, 7.0, parent=0),
        span(3, "c", 9.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0
