"""Three-deque store oracle: items, parked getters and parked putters are
plain deques built up front; ``fired`` lists ``(waiter, outcome)`` in trigger
order, which is the order the kernel must deliver a store's events in.
``priority=True`` pops the smallest item and, like ``PriorityStore``, never
parks a put."""

from collections import deque

from repro.sim.queues import QueueClosed


class ThreeDequeStore:
    def __init__(self, capacity=None, priority=False):
        self.capacity, self.priority = (None if priority else capacity), priority
        self.items, self.getters, self.putters = deque(), deque(), deque()
        self.closed, self.fired = False, []

    def _push(self, item):
        self.items.append(item)
        if self.priority:
            self.items = deque(sorted(self.items))

    def try_put(self, item):
        if self.closed or (not self.getters and self.capacity is not None
                           and len(self.items) >= self.capacity):
            return False
        if self.getters:
            self.fired.append((self.getters.popleft(), item))
        else:
            self._push(item)
        return True

    def put(self, item, who):
        if self.closed:
            self.fired.append((who, QueueClosed))
        elif self.try_put(item):
            self.fired.append((who, None))
        else:
            self.putters.append((who, item))

    def try_get(self, who=None):
        if not self.items:
            return False, None
        item = self.items.popleft()
        if who is not None:
            self.fired.append((who, item))
        if self.putters:
            putter, held = self.putters.popleft()
            self._push(held)
            self.fired.append((putter, None))
        return True, item

    def get(self, who):
        if not self.try_get(who)[0]:
            if self.closed:
                self.fired.append((who, QueueClosed))
            else:
                self.getters.append(who)

    def close(self):
        waiting = [*self.getters, *(who for who, _ in self.putters)]
        self.fired += [(who, QueueClosed) for who in waiting]
        self.closed = True
        self.getters.clear()
        self.putters.clear()
