"""Known model gaps, pinned.

These tests freeze the *current* accuracy of known cost-model
weaknesses so they cannot silently drift — each is a target for an
open ROADMAP item, and fixing it should FAIL the corresponding upper
pin here (at which point the pin is tightened, not deleted).

Gap 1 (ROADMAP items 1 and 17, an access-count gap): the in-memory
hash join *underpredicts* on permutation joins once the build side
outgrows L2.  The pattern declares fewer touches of the hash table
``H`` than the kernel makes: at scale 2 048 it declares ``r_trav(H)``
over 4 096 slots plus 2 048 probes (6 144 touches), while the kernel
makes 8 194, because ``SimHashTable.lookup`` walks to the first empty
slot.  Hence the 0.42/0.58 join errors recorded in
``BENCH_ext_vectorized.json`` at n=1024/4096.  At small n the same
template sits comfortably inside the validation band.
"""

import pytest

from repro.calibrator import Recalibrator
from repro.db.datagen import random_permutation
from repro.hardware import origin2000_scaled
from repro.session import Session

#: The model-vs-simulator tolerance the validation band uses for
#: in-memory query templates.
BAND = 0.35


def _join_session(n: int) -> Session:
    session = Session(origin2000_scaled())
    session.create_table("orders", random_permutation(n, seed=1))
    session.create_table("customers", random_permutation(n, seed=2))
    return session


def _join_error(n: int) -> float:
    result = _join_session(n).execute_measured("join(orders, customers)",
                                               restore=True)
    return result.error


class TestPermutationJoinOvershoot:
    def test_small_n_is_inside_the_band(self):
        assert _join_error(256) < BAND

    def test_large_n_gap_is_pinned(self):
        """The known gap: at n=1024 the permutation-join error sits
        around 0.42 (predicted < measured).  The lower pin documents
        that the gap is real (a fix of the declared access counts must
        beat it); the upper pin catches regressions that widen it."""
        error = _join_error(1024)
        assert 0.30 < error < 0.75, (
            f"permutation-join error {error:.3f} moved outside the "
            "pinned gap window — if it improved past the lower pin, "
            "the hash-table access count of ROADMAP items 1 and 17 "
            "progressed: tighten this pin")

    def test_recalibration_closes_the_gap(self):
        """The online response to the gap: the same uncalibrated
        session (whose static gap the pin above freezes) closes the gap
        *online* — repeated measured joins trip the drift monitor, the
        :class:`~repro.calibrator.Recalibrator` republishes a latency
        profile, and the re-measured error lands inside the validation
        band.  The static pin stays.  On the simulator the gap is an
        access-count error (ROADMAP items 1 and 17), which a latency
        profile only bends around; ROADMAP item 14(b) will rewrite this
        test to expect no publish on the unmodified simulator."""
        session = _join_session(1024)
        recalibrator = Recalibrator(session)
        for _ in range(3):  # signed-EWMA excursion needs min_samples
            result = session.execute_measured("join(orders, customers)",
                                              restore=True)
            recalibrator.observe(result)
        assert recalibrator.due()
        recalibration = recalibrator.recalibrate()
        assert recalibration is not None and recalibration.published
        # the search started from the pinned gap...
        assert recalibration.outcome.error_before > 0.30
        # ...and the *re-measured* error on the published profile (a
        # genuine rerun, not the search's own score) is inside the band
        after = session.execute_measured("join(orders, customers)",
                                         restore=True)
        assert after.error < BAND, (
            f"recalibrated error {after.error:.3f} should beat the "
            f"{BAND} band the static profile cannot hold")
