"""The ledger's layer table and the out-of-program tracer that applies it.

Each layer is named after the module it covers.  ``TABLE`` maps the public
functions and methods of those modules onto the layers; :class:`Tracer`
wraps every entry from the outside (no file under ``src/`` knows it is
being measured) and records, per thread:

* calls of every entry;
* for *timed* entries, inclusive and self time, using one stack per
  thread (a layer's self time is its inclusive time minus the inclusive
  time of the timed calls it made);
* the wall-clock intervals of the outermost timed calls (the roots), so the
  time no layer covers can be measured independently of the self times.

Hot leaves (``mod_*``, ``OperationCounter.count_*``, ``FixedBaseTable.pow``
and the table lookup in front of it) are *counted* but not timed: reading
the clock twice around a call that costs a few hundred nanoseconds would
dominate what it measures.  Their time lands in the self time of the timed
caller.

Installing the tracer replaces each entry at its defining site *and* at
every module-level alias inside the ``repro`` package (``from x import f``
copies the function object into the importing module, so patching only the
defining module would miss those calls).  Class and static methods are
unwrapped and re-wrapped in their descriptor.  An entry that no longer
resolves raises :class:`LayerTableError` naming every such entry.
"""

import collections
import functools
import importlib
import sys
import threading
import time

#: How a table entry is recorded.
TIMED = "timed"        # counted, and timed with inclusive/self time
COUNTED = "counted"    # counted only (hot leaf)
COUNTER = "counter"    # counted only, reported as ``<layer>.counter_calls``

#: ``(layer, module, kind, names, extra count)``.  ``names`` are qualified
#: within the module (``Class.method``); every name must be *defined* there
#: (an inherited method is listed on the class that defines it).  The extra
#: count, when given, is a second tally the entry feeds (``step_calls``,
#: ``checks``) next to ``calls``.
TABLE = (
    ("crypto.modular", "repro.crypto.modular", COUNTED,
     ("mod_add", "mod_sub", "mod_mul", "mod_exp", "mod_inv", "mod_div"),
     None),
    ("crypto.modular", "repro.crypto.modular", COUNTER,
     ("OperationCounter.count_add", "OperationCounter.count_mul",
      "OperationCounter.count_inv", "OperationCounter.count_exp",
      "OperationCounter.count_exp_batch"), None),
    ("crypto.fastexp", "repro.crypto.fastexp", COUNTED,
     ("FixedBaseTable.pow", "fixed_base_table"), None),
    ("crypto.fastexp", "repro.crypto.fastexp", TIMED,
     ("FixedBaseTable.__init__", "straus_tables", "multi_exp_with_tables",
      "multi_exp", "batch_mod_inv"), None),
    ("crypto.commitments", "repro.crypto.commitments", TIMED,
     ("PedersenCommitter.commit", "PedersenCommitter.verify",
      "PedersenCommitter.commit_polynomial", "PolynomialCommitment.evaluate",
      "PolynomialCommitment.verify_share", "verify_share_batch",
      "product_of_commitment_evaluations"), None),
    ("crypto.polynomials", "repro.crypto.polynomials", TIMED,
     ("Polynomial.random", "Polynomial.zero", "Polynomial.evaluate",
      "Polynomial.__add__", "Polynomial.__sub__", "Polynomial.__mul__",
      "Polynomial.scale", "Polynomial.shares_at",
      "Polynomial.padded_coefficients", "sum_polynomials"), None),
    ("crypto.interpolation", "repro.crypto.interpolation", TIMED,
     ("lagrange_weights_at_zero", "interpolate_at_zero", "resolve_degree",
      "resolve_degree_in_exponent"), None),
    ("core.bidding", "repro.core.bidding", TIMED,
     ("encode_bid", "all_share_bundles", "BidPackage.share_bundle_for"),
     None),
    ("core.verification", "repro.core.verification", TIMED,
     ("verify_share_bundle", "verify_lambda_psi", "verify_f_disclosure"),
     "checks"),
    ("core.verification", "repro.core.verification", TIMED,
     ("gamma_value", "phi_value"), None),
    ("core.resolution", "repro.core.resolution", TIMED,
     ("resolve_first_price", "identify_winner", "resolve_second_price"),
     None),
    ("core.agent", "repro.core.agent", TIMED,
     ("DMWAgent.__init__", "DMWAgent.adopt_cache", "DMWAgent.task_rng",
      "DMWAgent.batch_verify_rng", "DMWAgent.choose_bid",
      "DMWAgent.begin_task", "DMWAgent.receive_bundle",
      "DMWAgent.receive_commitments", "DMWAgent.check_shares",
      "DMWAgent.publish_aggregates", "DMWAgent.validate_aggregates",
      "DMWAgent.arbitrate_aggregates", "DMWAgent.resolve_first",
      "DMWAgent.disclosure_rank", "DMWAgent.disclose_f_shares",
      "DMWAgent.claim_winnership", "DMWAgent.validate_disclosures",
      "DMWAgent.arbitrate_disclosures", "DMWAgent.find_winner",
      "DMWAgent.publish_excluded_aggregates",
      "DMWAgent.validate_excluded_aggregates",
      "DMWAgent.arbitrate_excluded_aggregates", "DMWAgent.resolve_second",
      "DMWAgent.payment_claim", "DMWAgent.task_state"), None),
    ("core.agent", "repro.core.machine", TIMED,
     ("AgentMachine.send_bidding", "AgentMachine.send_aggregates",
      "AgentMachine.send_disclosure", "AgentMachine.send_second_price",
      "AgentMachine.send_payment_claim", "AgentMachine.recv_bidding",
      "AgentMachine.collect_published", "AgentMachine.collect_claims",
      "AgentMachine.drain", "AgentMachine.act_check_shares",
      "AgentMachine.act_validate_aggregates",
      "AgentMachine.act_arbitrate_aggregates",
      "AgentMachine.act_resolve_first",
      "AgentMachine.act_validate_disclosures",
      "AgentMachine.act_arbitrate_disclosures",
      "AgentMachine.act_find_winner", "AgentMachine.act_validate_excluded",
      "AgentMachine.act_arbitrate_excluded",
      "AgentMachine.act_resolve_second"), None),
    ("network", "repro.network.simulator", TIMED,
     ("SynchronousNetwork.send", "SynchronousNetwork.publish",
      "SynchronousNetwork.deliver", "SynchronousNetwork.receive",
      "SynchronousNetwork.peek", "SynchronousNetwork.published"), None),
    ("network", "repro.network.asynchronous", TIMED,
     ("TimeoutNetwork.deliver",), None),
    ("network", "repro.network.metrics", TIMED,
     ("NetworkMetrics.record", "NetworkMetrics.record_round",
      "NetworkMetrics.record_retransmission",
      "NetworkMetrics.record_recovery", "NetworkMetrics.merge",
      "NetworkMetrics.as_dict"), None),
    ("network", "repro.network.transport", TIMED,
     ("create_transport", "InProcessTransport.send",
      "InProcessTransport.publish", "InProcessTransport.receive",
      "InProcessTransport.network_view"), None),
    ("network", "repro.network.transport", TIMED,
     ("InProcessTransport.step",), "step_calls"),
    ("network", "repro.network.asyncio_transport", TIMED,
     ("AsyncioSocketTransport.__init__", "AsyncioSocketTransport.send",
      "AsyncioSocketTransport.publish", "AsyncioSocketTransport.receive",
      "AsyncioSocketTransport.peek", "AsyncioSocketTransport.published",
      "AsyncioSocketTransport.network_view", "AsyncioSocketTransport.close"),
     None),
    ("network", "repro.network.asyncio_transport", TIMED,
     ("AsyncioSocketTransport.step",), "step_calls"),
    ("core.protocol", "repro.core.protocol", TIMED,
     ("run_dmw", "DMWProtocol.__init__", "DMWProtocol.execute"), None),
    ("parallel", "repro.parallel", TIMED, ("run_pool_auctions",), None),
    ("obs", "repro.obs.export", TIMED,
     ("run_report", "validate_run_report", "to_prometheus"), None),
    ("obs", "repro.obs.metrics", TIMED,
     ("registry_for_run", "MetricsRegistry.to_prometheus"), None),
    ("service", "repro.service.jobs", TIMED,
     ("parse_job", "seeded_instance"), None),
    ("service", "repro.service.engine", TIMED,
     ("AuctionService.submit",), None),
    ("service", "repro.service.warmcache", TIMED,
     ("WarmCacheStore.cache_for", "WarmCacheStore.absorb"), None),
)

#: Every layer, in table order.
LAYERS = tuple(dict.fromkeys(row[0] for row in TABLE))

#: Layers with at least one timed entry (they report self time).
TIMED_LAYERS = tuple(dict.fromkeys(row[0] for row in TABLE
                                   if row[2] == TIMED))


class LayerTableError(RuntimeError):
    """One or more table entries no longer resolve in the program."""


#: One wrapped function: where it lives and what it tallies.
_Entry = collections.namedtuple(
    "_Entry", "slot layer module qualname kind extra")


class _ThreadState:
    """One thread's tallies; only its own thread writes to it."""

    __slots__ = ("name", "calls", "self_time", "stack", "roots")

    def __init__(self, size):
        self.name = threading.current_thread().name
        self.calls = [0] * size
        self.self_time = [0.0] * size
        #: Per open timed frame: the inclusive time of its timed children.
        self.stack = []
        #: ``(start, end)`` of every outermost timed call.
        self.roots = []


def _resolve(module_name, qualname):
    """Return ``(owner, name, raw)``: the namespace holding the entry and
    the raw attribute (a descriptor for class members)."""
    module = importlib.import_module(module_name)
    parts = qualname.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        # The class's own dict: an inherited name is a table error, and the
        # raw descriptor tells class/static methods apart.
        raw = owner.__dict__[name]
    else:
        raw = getattr(owner, name)
    function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
        else raw
    if not callable(function) or isinstance(raw, property):
        raise TypeError("%s.%s is not a function" % (module_name, qualname))
    return owner, name, raw


class Tracer:
    """Wraps the table's entries and accumulates per-thread tallies.

    Use as ``tracer.install()`` / ``tracer.uninstall()`` (or a ``with``
    block).  :meth:`summary` folds every thread's tallies into per-layer
    totals.
    """

    def __init__(self, table=TABLE):
        self.table = table
        self.entries = []
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._patches = []

    # -- per-thread state -------------------------------------------------
    def _state(self):
        state = _ThreadState(len(self.entries))
        self._local.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    # -- wrappers ---------------------------------------------------------
    def _counting(self, function, slot):
        local = self._local
        new_state = self._state

        @functools.wraps(function)
        def counted(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            state.calls[slot] += 1
            return function(*args, **kwargs)
        return counted

    def _timing(self, function, slot):
        local = self._local
        new_state = self._state
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            state.calls[slot] += 1
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                state.self_time[slot] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    state.roots.append((start, end))
        return timed

    # -- install / uninstall ----------------------------------------------
    def install(self):
        """Wrap every table entry; raises :class:`LayerTableError` (and
        patches nothing) when any entry does not resolve."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        resolved = []
        missing = []
        for layer, module, kind, names, extra in self.table:
            for qualname in names:
                try:
                    owner, name, raw = _resolve(module, qualname)
                except (ImportError, AttributeError, KeyError,
                        TypeError) as error:
                    missing.append("%s: %s.%s (%s: %s)"
                                   % (layer, module, qualname,
                                      type(error).__name__, error))
                    continue
                resolved.append((layer, module, qualname, kind, extra,
                                 owner, name, raw))
        if missing:
            raise LayerTableError("layer table entries that no longer "
                                  "resolve:\n  " + "\n  ".join(missing))
        aliases = _module_aliases()
        self.entries = []
        for slot, (layer, module, qualname, kind, extra, owner, name,
                   raw) in enumerate(resolved):
            self.entries.append(_Entry(slot, layer, module, qualname, kind,
                                       extra))
            descriptor = type(raw) if isinstance(
                raw, (classmethod, staticmethod)) else None
            function = raw.__func__ if descriptor else raw
            wrap = self._timing if kind == TIMED else self._counting
            wrapped = wrap(function, slot)
            replacement = descriptor(wrapped) if descriptor else wrapped
            if isinstance(owner, type):
                self._patch(owner, name, raw, replacement)
            else:
                # A module-level function: its defining module and every
                # module that imported it by name.
                for alias_module, alias_name in aliases.get(id(raw), ()):
                    self._patch(alias_module, alias_name, raw, replacement)
        return self

    def _patch(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def uninstall(self):
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- results ----------------------------------------------------------
    def summary(self):
        """Fold every thread's tallies.

        Returns a dict with ``layers`` (per layer: ``calls``,
        ``counter_calls``, extra tallies, ``self_s``), ``functions``
        (per entry: ``calls``, ``self_s``), ``roots`` (every thread's
        outermost timed intervals) and ``threads`` (per thread name: the
        summed length of its outermost intervals).
        """
        with self._states_lock:
            states = list(self._states)
        size = len(self.entries)
        calls = [0] * size
        self_time = [0.0] * size
        roots = []
        threads = {}
        for state in states:
            for slot in range(size):
                calls[slot] += state.calls[slot]
                self_time[slot] += state.self_time[slot]
            roots.extend(state.roots)
            threads[state.name] = threads.get(state.name, 0.0) + sum(
                end - start for start, end in state.roots)
        layers = {layer: {"calls": 0, "counter_calls": 0, "self_s": 0.0}
                  for layer in LAYERS}
        functions = {}
        for entry in self.entries:
            tally = layers[entry.layer]
            count = calls[entry.slot]
            if entry.kind == COUNTER:
                tally["counter_calls"] += count
            else:
                tally["calls"] += count
            if entry.extra:
                tally[entry.extra] = tally.get(entry.extra, 0) + count
            tally["self_s"] += self_time[entry.slot]
            functions["%s.%s" % (entry.module, entry.qualname)] = {
                "layer": entry.layer, "calls": count,
                "self_s": self_time[entry.slot]}
        return {"layers": layers, "functions": functions, "roots": roots,
                "threads": threads}


def _module_aliases():
    """``id(object) -> [(module, name), ...]`` over the ``repro`` package.

    Taken once per install: every module-level binding of every loaded
    ``repro`` module, so a wrapped function can be replaced wherever it
    was imported by name.
    """
    index = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if callable(value):
                index.setdefault(id(value), []).append((module, name))
    return index


def covered_seconds(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total
