"""The bitmask placement kernel keeps the tie order of a plain cell scan."""

import random

from wavebroker._kernel import cheapest_placement


def scan_placement(link_lists, costs, grid, used, caps, banned, n_wl):
    """Reference: scan wavelengths in order over a link-major 0/1 grid."""
    best_p = best_w = -1
    best_cost = 0
    for p, links in enumerate(link_lists):
        if best_p >= 0 and costs[p] > best_cost:
            break
        if any(used[li] >= caps[li] for li in links):
            continue
        limit = best_w if best_p >= 0 else n_wl
        for w in range(limit):
            if not banned[w] and not any(grid[li * n_wl + w] for li in links):
                best_p, best_w, best_cost = p, w, costs[p]
                break
    return best_p, best_w


def masks_of(grid, n_links, n_wl):
    return [sum(1 << w for w in range(n_wl) if grid[li * n_wl + w]) for li in range(n_links)]


def allowed_of(banned):
    return sum(1 << w for w, b in enumerate(banned) if not b)


def test_matches_reference_scan_on_random_instances():
    rng = random.Random(4242)
    hits = 0
    for _ in range(3000):
        n_links = rng.randint(1, 8)
        n_wl = rng.randint(1, 70)
        n_paths = rng.randint(1, 5)
        link_lists = [rng.sample(range(n_links), rng.randint(1, n_links)) for _ in range(n_paths)]
        # few distinct costs, so that equal-cost ties are common
        costs = sorted(rng.randint(1, 4) for _ in range(n_paths))
        density = rng.random()
        grid = [int(rng.random() < density) for _ in range(n_links * n_wl)]
        used = [sum(grid[li * n_wl : (li + 1) * n_wl]) for li in range(n_links)]
        caps = [rng.randint(0, n_wl) for _ in range(n_links)]
        banned = [int(rng.random() < 0.2) for _ in range(n_wl)]
        want = scan_placement(link_lists, costs, grid, used, caps, banned, n_wl)
        got = cheapest_placement(link_lists, costs, masks_of(grid, n_links, n_wl), caps, allowed_of(banned))
        assert got == want
        hits += want[0] >= 0
    assert 300 < hits < 2700  # both outcomes are exercised


def test_prefers_lower_wavelength_then_path_rank():
    # two equal-cost single-link paths over different links, wavelength 0 busy on link 0
    link_lists = [[0], [1]]
    costs = [10, 10]
    masks = [0b01, 0b00]
    caps = [2, 2]
    # path 1 can serve w0; path 0 only w1 -> lower wavelength wins despite higher rank
    assert cheapest_placement(link_lists, costs, masks, caps, 0b11) == (1, 0)
    # with w0 not allowed both paths offer w1; lower rank wins the tie
    assert cheapest_placement(link_lists, costs, masks, caps, 0b10) == (0, 1)


def test_cheaper_path_beats_lower_wavelength():
    # the cheap path only offers w1
    assert cheapest_placement([[0], [1]], [5, 8], [0b01, 0b00], [2, 2], 0b11) == (0, 1)


def test_capacity_blocks_even_with_free_cells():
    # w0 busy, w1/w2 free, but the link only admits one wavelength
    assert cheapest_placement([[0]], [5], [0b001], [1], 0b111) == (-1, -1)


def test_nothing_fits_returns_sentinel():
    assert cheapest_placement([[0]], [5], [0b11], [2], 0b11) == (-1, -1)
