"""Inside the distributed embedding: ownership, memory, serialization.

The full table stores every landmark-to-vertex distance, k rows of n
entries. The distributed form keeps one owner landmark per vertex plus
the single distance to it, and adds the small k-by-k landmark matrix.
Preprocessing is one multi-source sweep instead of k full trees, plus
truncated runs between landmarks for the matrix; a selector that already
ran full trees from its landmarks hands those matrix rows on, and the
full rows themselves to the full-table build.

    python3 demos/03_distributed_embedding.py
"""

import io
from collections import Counter

from polyroute import (
    LandmarkSet,
    build_alt_embedding,
    build_distributed_embedding,
    generate_random_connected,
    load_embedding,
    save_embedding,
    select_farthest,
    space_accounting,
    track_kernels,
)

g = generate_random_connected(500, 200, seed=21)
L = select_farthest(g, 8, seed=21)


def show(label, kc):
    print(f"{label:31s}: full_spt={kc.full_spt} "
          f"multi_source={kc.multi_source} truncated_spt={kc.truncated_spt}")


# The standalone cost, from landmark ids alone (as read from a file):
# one sweep plus one truncated run per landmark.
with track_kernels() as kc:
    dist = build_distributed_embedding(g, LandmarkSet(L.ids))
show("distributed build, ids only", kc)

# In a pipeline, select_farthest hands on the matrix rows of the full
# trees it ran, so only its last landmark needs a truncated run.
with track_kernels() as kc:
    piped = build_distributed_embedding(g, L)
show("distributed build, selector's L", kc)
assert piped == dist

# The full table needs one full tree per landmark from ids alone; with
# the selector's L it takes over the rows of the trees select_farthest
# ran, so only the last landmark needs a tree.
with track_kernels() as kc:
    full = build_alt_embedding(g, LandmarkSet(L.ids))
show("full-table build, ids only", kc)
with track_kernels() as kc:
    piped_full = build_alt_embedding(g, L)
show("full-table build, selector's L", kc)
assert piped_full == full
print()

# Ownership partitions the graph into nearest-landmark cells.
cells = Counter(dist.owner)
print("cell sizes by landmark index:", dict(sorted(cells.items())))
print()

# The stored-entry counter matches the closed form for each layout. The
# saved file holds each section at the narrowest width that keeps every
# value exact (1 byte per distance here, since the distances are small
# ints), and the symmetric landmark matrix as its entries above the
# diagonal, so entries and bytes are the two memory numbers. The round trip
# gives back integral distances as ints, landmark ids and owners intact.
for label, e in (("full table", full), ("distributed", dist)):
    stored, formula = space_accounting(e)
    buf = io.BytesIO()
    save_embedding(e, buf)
    print(f"{label:11s} stores {stored:5d} distance entries "
          f"(formula gives {formula}) in {len(buf.getvalue()):5d} bytes")
    buf.seek(0)
    assert load_embedding(buf) == e
print("round trip: ok")
