"""Placement kernel: where does the next wavelength unit of a connection go?

Occupancy is one Python ``int`` per link, with bit ``w`` set when 0-based
wavelength ``w`` is taken, and nothing else: a link's used count is the
popcount of its mask, a path's taken wavelengths are the OR of its links'
masks, and the lowest free one is the lowest set bit of the complement.
"""

from __future__ import annotations


def cheapest_placement(link_lists, costs, masks, caps, allowed):
    """Pick the cheapest feasible (path, wavelength) cell for one unit.

    - link_lists: link indices of each candidate path
    - costs: per-wavelength cost of each path, ascending
    - masks: per-link occupancy bitmask, bit ``w`` set = wavelength ``w`` taken
    - caps: per-link capacity limits, compared with each mask's popcount
    - allowed: bitmask of the wavelengths this connection may take

    Tie order is (path cost, wavelength index, path rank).  Returns
    ``(path_index, wavelength_index)`` with a 0-based wavelength, or
    ``(-1, -1)`` when nothing fits.
    """
    best_p = best_w = -1
    best_cost = 0
    for p, links in enumerate(link_lists):
        cost = costs[p]
        if best_p >= 0 and cost > best_cost:
            break
        taken = 0
        for li in links:
            mask = masks[li]
            if mask.bit_count() >= caps[li]:
                break
            taken |= mask
        else:
            free = allowed & ~taken
            # once a same-cost candidate exists, only a strictly lower wavelength wins
            if best_p >= 0:
                free &= (1 << best_w) - 1
            if free:
                best_p = p
                best_w = (free & -free).bit_length() - 1
                best_cost = cost
    return best_p, best_w
