"""The original worker-pool contract, held by :meth:`Supervisor.run`.

``Supervisor.run(...).raise_on_failure()`` is the strict, pool-shaped
surface: results in payload order, an empty payload list is fine, and a
closed manager refuses work.  Task functions live at module level (spawn pickles them
by reference), so the helpers here double as a check that the test
package itself is importable from a cold worker process.
"""

import pytest

from repro.parallel import Supervisor


def square(x):
    return x * x


class TestWorkerPool:
    def test_map_preserves_payload_order(self):
        with Supervisor(2) as pool:
            assert pool.run(square, list(range(10))).raise_on_failure() == [x * x for x in range(10)]

    def test_closed_pool_refuses_work(self):
        pool = Supervisor(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(square, [1]).raise_on_failure()

    def test_empty_payload_list(self):
        with Supervisor(2) as pool:
            assert pool.run(square, []).raise_on_failure() == []
