"""The original worker-pool contract, held by :meth:`Supervisor.map`.

``Supervisor.map`` is the strict, pool-shaped surface: results in
payload order, an empty payload list is fine, and a closed manager
refuses work.  Task functions live at module level (spawn pickles them
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
            assert pool.map(square, list(range(10))) == [x * x for x in range(10)]

    def test_closed_pool_refuses_work(self):
        pool = Supervisor(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(square, [1])

    def test_empty_payload_list(self):
        with Supervisor(2) as pool:
            assert pool.map(square, []) == []
