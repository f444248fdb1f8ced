"""repro.bench: the harness every plane's bench is written against.

The benches' own byte-identity gates only mean something if the shared
pieces are sound: the four identity hashes must each be sensitive to
the one thing they claim to cover, the tracer must never leak past a
failed run, reports must serialize canonically, and the ORAM clients'
``logical_content`` must be exactly the world the writes built.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.bench.registry import BENCHES
from repro.bench.report import GateReport
from repro.bench.stack import (
    HASH_FIELDS,
    build_evalset,
    build_service,
    compare_identity,
    connect_tenants,
    content_digest,
    identity_hashes,
    load_sessions,
    traced,
)
from repro.cli import build_parser
from repro.crypto.kdf import Drbg
from repro.crypto.suite import Blake2Aead
from repro.hardware.timing import SimClock
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.serving.gateway import Gateway, GatewayConfig, ServiceExecutor
from repro.serving.loadgen import run_closed_loop
from repro.serving.metrics import MetricsRegistry
from repro.telemetry.tracer import NULL_TRACER, TraceSampler, tracer_for

REPO = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# identity_hashes: equal across same-seed builds, each field sensitive
# ----------------------------------------------------------------------

def _serve_once():
    """A 1-block / 2-tenant stack, one request per tenant."""
    evalset = build_evalset(1, 4)
    service = build_service(evalset.node)
    metrics = MetricsRegistry()
    with traced(service.clock, TraceSampler(1.0, 1)) as tracer:
        gateway = Gateway(
            ServiceExecutor(service), GatewayConfig(),
            metrics=metrics, tracer=tracer,
        )
        sessions = load_sessions(
            service, connect_tenants(service, 2), evalset.transactions
        )
        load = run_closed_loop(gateway, sessions, requests_per_session=1)
    assert load.completed == 2
    return tracer, metrics, [load], service


@pytest.fixture(scope="module")
def stack():
    return _serve_once()


@pytest.fixture(scope="module")
def clean_hashes(stack):
    return identity_hashes(*stack)


def _changed_fields(before: dict, after: dict) -> set[str]:
    return {name for name in before if before[name] != after[name]}


def test_identity_hashes_equal_across_same_seed_builds(clean_hashes):
    assert tuple(clean_hashes) == HASH_FIELDS
    assert identity_hashes(*_serve_once()) == clean_hashes


def test_each_identity_hash_sees_only_its_own_perturbation(stack, clean_hashes):
    """Vacuity guard: a span, a metric, one wire byte and one ORAM block
    each move exactly the hash that covers them."""
    tracer, metrics, loads, service = stack

    with tracer.span("bench-harness.extra", "other"):
        pass
    with_span = identity_hashes(*stack)
    assert _changed_fields(clean_hashes, with_span) == {"trace_hash"}

    metrics.counter("bench_harness.extra").inc()
    with_metric = identity_hashes(*stack)
    assert _changed_fields(with_span, with_metric) == {"metrics_hash"}

    request = loads[0].outcomes[0]
    sealed = request.result
    flipped = bytes([sealed.ciphertext[0] ^ 1]) + sealed.ciphertext[1:]
    request.result = dataclasses.replace(sealed, ciphertext=flipped)
    with_wire = identity_hashes(*stack)
    assert _changed_fields(with_metric, with_wire) == {"wire_hash"}

    service.shared_oram_client.access(b"bench-harness/extra", b"block")
    with_block = identity_hashes(*stack)
    assert _changed_fields(with_wire, with_block) == {"digest"}


def test_compare_identity_names_each_divergence():
    left = dict.fromkeys(HASH_FIELDS, "a")
    identity, failures = compare_identity(left, dict(left), "{name} moved")
    assert identity == {
        "trace": True, "metrics": True, "wire": True, "digest": True
    }
    assert failures == []
    identity, failures = compare_identity(
        left, {**left, "wire_hash": "b"}, "{name} moved"
    )
    assert identity["wire"] is False and sum(identity.values()) == 3
    assert failures == ["wire moved"]


# ----------------------------------------------------------------------
# traced
# ----------------------------------------------------------------------

def test_traced_uninstalls_when_the_body_raises():
    clock = SimClock()
    with pytest.raises(RuntimeError, match="mid-run"):
        with traced(clock) as tracer:
            assert tracer_for(clock) is tracer
            raise RuntimeError("mid-run")
    assert tracer_for(clock) is NULL_TRACER


# ----------------------------------------------------------------------
# GateReport
# ----------------------------------------------------------------------

@dataclass
class _DemoReport(GateReport):
    zeta: dict
    alpha: list

    bench = "demo"

    def section_lines(self) -> list[str]:
        return [f"alpha has {len(self.alpha)} rows"]


@pytest.mark.parametrize("failures", [[], ["gate one", "gate two"]])
def test_gate_report_json_is_canonical(failures):
    report = _DemoReport(
        seed=5, zeta={"b": 1, "a": 2}, alpha=[3], gate_failures=failures
    )
    text = report.to_json()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, indent=2, sort_keys=True)
    assert parsed == {
        "bench": "demo",
        "seed": 5,
        "zeta": {"a": 2, "b": 1},
        "alpha": [3],
        "gate_failures": failures,
        "passed": not failures,
    }
    assert report.passed == (not failures)
    lines = report.summary_lines()
    assert lines[0] == "alpha has 1 rows"
    if failures:
        assert lines[1:] == ["gate failures:", "  - gate one", "  - gate two"]
    else:
        assert lines[1:] == ["all gates passed"]


# ----------------------------------------------------------------------
# logical_content on both ORAM clients
# ----------------------------------------------------------------------

_BLOCK = 64
# world_digest of _seeded_writes() through a PathOramClient, captured at
# the commit before repro.bench existed (recovery.bench.world_digest).
_PARENT_WORLD_DIGEST = (
    "059522ba45269ea2844d9ced12f589e0a084b2852bd1e2f6ece0ecd42985b323"
)


def _seeded_writes(client) -> dict[bytes, bytes]:
    """40 seeded writes over 12 keys; returns the plain dict they build."""
    rng = Drbg(b"bench-harness", personalization=b"world")
    expected: dict[bytes, bytes] = {}
    for _ in range(40):
        key = b"page-%02d" % rng.randint(12)
        value = bytes([rng.randint(256)]) * (1 + rng.randint(_BLOCK))
        client.access(key, value)
        expected[key] = value.ljust(_BLOCK, b"\x00")
    return expected


def _path_world():
    server = OramServer(height=4)
    client = PathOramClient(
        server, hashlib.sha256(b"bench-harness-world").digest(),
        block_size=_BLOCK,
    )
    return client, server


@pytest.mark.parametrize("build", [_path_world])
def test_logical_content_is_the_world_the_writes_built(build):
    client, server = build()
    expected = _seeded_writes(client)
    assert len(expected) > 1 and len(expected) < 40  # overwrites happened
    decrypted_before = client.stats.blocks_decrypted
    content = client.logical_content(server)
    assert content == expected  # last write wins, nothing extra
    assert b"page-99" not in content
    assert client.stats.blocks_decrypted == decrypted_before  # read-only


def test_path_world_digest_matches_the_parent_commit():
    client, server = _path_world()
    _seeded_writes(client)
    assert content_digest(client.logical_content(server)) == _PARENT_WORLD_DIGEST


# ----------------------------------------------------------------------
# Registry == CLI == CI
# ----------------------------------------------------------------------

def _smoke_bench_commands() -> set[str]:
    (subparsers,) = (
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.choices
    )
    return {
        name for name, sub in subparsers.choices.items()
        if name.endswith("-bench") and "--smoke" in sub._option_string_actions
    }


def test_registry_is_exactly_the_smoke_bench_subcommands():
    assert {spec.command for spec in BENCHES} == _smoke_bench_commands()
    for spec in BENCHES:
        config_class, run = spec.load()
        assert callable(run) and hasattr(config_class, "smoke")
        for extra in spec.extra_args:
            assert extra.config_field in {
                f.name for f in dataclasses.fields(config_class)
            }


def test_ci_bench_matrix_follows_the_registry():
    """Plain-text grep (no YAML dependency): the matrix legs are the
    registry's benches, each leg regenerates at the bench's default
    seed and compares against its committed report, and the markers it
    selects exist."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    legs = re.findall(
        r'- \{ bench: (\S+), marker: (\S+), config: "([^"]*)" \}', workflow
    )
    assert sorted(bench for bench, _, _ in legs) == sorted(
        spec.name for spec in BENCHES
    )
    assert (
        "python -m repro.cli ${{ matrix.bench }}-bench ${{ matrix.config }} \\\n"
        "            --json-out regenerated-${{ matrix.bench }}.json"
    ) in workflow
    assert "cmp regenerated-${{ matrix.bench }}.json BENCH_${{ matrix.bench }}.json" in workflow
    pyproject = (REPO / "pyproject.toml").read_text()
    for bench, marker, config in legs:
        assert (REPO / f"BENCH_{bench}.json").is_file()
        assert f'"{marker}: ' in pyproject
        assert config in ("", "--smoke")
    # The perf marker runs once, as the matrix's perf leg (no job of its
    # own); every job installs `.[dev]`, and OpenSSL comes with the
    # package itself (`cryptography` is a dependency, no extra); tier-1
    # also runs with asserts compiled out; the e2e ledger has its leg.
    assert "\n  perf:\n" not in workflow
    assert "run: python -m pytest -q -m ${{ matrix.marker }}" in workflow
    assert 'dependencies = [\n    "cryptography",\n]' in pyproject
    assert '    "numpy",\n    "scipy",\n]' in pyproject.split("dev = [", 1)[1]
    assert "accel" not in pyproject and "accel" not in workflow
    assert workflow.count('pip install -e ".[dev]"') == 3
    assert "run: python -O -m pytest -x -q" in workflow
    assert "python3 benchmarks/e2e/run.py --smoke" in workflow
    assert "python -m pytest benchmarks/e2e -q" in workflow


def test_every_e2e_entry_point_resolves_on_its_owner():
    """The e2e ledger patches each ``ENTRY_POINTS`` row at
    ``owner.__dict__[attribute]``, so a deleted or merely inherited name
    fails its traced leg (``run.py --smoke``), which this suite does not
    run.  Read-only: the rows are resolved, nothing is installed."""
    import importlib

    from benchmarks.e2e.trace import ENTRY_POINTS

    unresolved = []
    for name, module_name, class_name, attribute in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is None or attribute not in vars(owner):
            unresolved.append(f"{name}: {module_name} {class_name} {attribute}")
    assert unresolved == []


def test_committed_reports_carry_their_registry_tag():
    for spec in BENCHES:
        report = json.loads((REPO / spec.artifact).read_text())
        assert report["passed"] is True, spec.name
        assert report["bench"].startswith(spec.name), spec.name


# ----------------------------------------------------------------------
# Import hygiene
# ----------------------------------------------------------------------

def test_no_plane_module_loads_a_bench_module():
    """Import every ``repro`` module that is not a bench or harness in
    one fresh interpreter: no bench or harness comes with them.  The CLI
    reads the bench registry (module paths as strings) to build its
    subcommands, and that is the only bench module any plane loads."""
    import pkgutil

    import repro

    names = [
        module.name
        for module in pkgutil.walk_packages(repro.__path__, "repro.")
        if not any(word in module.name for word in ("bench", "harness", "__main__"))
    ]
    script = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')\n"
        "             and ('bench' in m or 'harness' in m)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert "repro.serving.gateway" in names and "repro.faults.policy" in names
    assert result.stdout.strip() == str(["repro.bench", "repro.bench.registry"])


def test_no_repro_module_imports_numpy():
    """numpy is a dev extra, not a dependency: every ``repro`` module
    imports in a fresh interpreter without it ever being loaded."""
    script = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not module.name.endswith('__main__'):\n"
        "        importlib.import_module(module.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.stdout.strip() == "[]", result.stdout


def _module_paths() -> dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    paths = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(REPO / "src").with_suffix("").parts
        paths[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return paths


def _defined_names(body: list) -> set[str]:
    """Names a module binds by ``def``, ``class`` or assignment (also
    under a module-level ``if`` / ``try`` / ``with``), not by import."""
    names: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        for block in ("body", "orelse", "finalbody"):
            names |= _defined_names(getattr(node, block, []))
        for handler in getattr(node, "handlers", []):
            names |= _defined_names(handler.body)
    return names


def test_every_name_is_imported_from_the_module_that_defines_it():
    """One import path per name.  (a) No package ``__init__`` under
    ``src/repro`` binds a name by import, ``__all__`` or ``__getattr__``:
    each holds its docstring (the root adds ``__version__``), except
    ``evm/instructions/__init__.py``, whose dispatch table is real code.
    (b) Every ``from repro.X import n`` in ``src``, ``tests``,
    ``benchmarks`` and ``examples`` names a submodule of ``repro.X`` or a
    name ``repro.X`` binds by ``def``, ``class`` or assignment."""
    modules = _module_paths()
    trees = {name: ast.parse(path.read_text()) for name, path in modules.items()}
    offenders = []
    for name, path in modules.items():
        if path.name != "__init__.py" or name == "repro.evm.instructions":
            continue
        for node in ast.walk(trees[name]):
            binds = (
                isinstance(node, (ast.Import, ast.ImportFrom))
                or isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
                or isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            )
            if binds:
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno}: facade")
    defined = {name: _defined_names(tree.body) for name, tree in trees.items()}
    for tree in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((REPO / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.ImportFrom) and node.level == 0
                        and (node.module or "").split(".")[0] == "repro"):
                    continue
                for alias in node.names:
                    if alias.name in defined.get(node.module, ()):
                        continue
                    if f"{node.module}.{alias.name}" in modules:
                        continue
                    offenders.append(
                        f"{path.relative_to(REPO)}:{node.lineno}: "
                        f"from {node.module} import {alias.name}"
                    )
    assert offenders == []


def test_every_name_a_src_module_imports_is_used():
    """ruff's F401 runs in CI only; this is its ``from ... import`` half
    over ``src/repro``, stdlib ``ast`` alone.  A name counts as used
    when it is read anywhere in the module, a quoted annotation
    included; ``__future__`` imports and an import marked
    ``# noqa: F401`` (a module loaded for its side effects) are exempt."""
    def names(tree) -> set[str]:
        return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}

    offenders = []
    for path in _module_paths().values():
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = names(tree)
        for node in ast.walk(tree):
            annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
            for quoted in ast.walk(annotation) if annotation else ():
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    used |= names(ast.parse(quoted.value, mode="eval"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                if (alias.asname or alias.name) not in used:
                    offenders.append(
                        f"{path.relative_to(REPO)}:{node.lineno}: {alias.name}")
    assert offenders == []


# ----------------------------------------------------------------------
# One request pipeline: the deleted copies stay deleted
# ----------------------------------------------------------------------

def test_one_event_loop_and_no_deleted_copy_grows_back():
    """Plain-text grep, like the CI matrix check above.  Event
    scheduling on a heap lives in ``serving/reactor.py`` alone, anywhere
    in ``src/repro`` (the gateway's priority *queue* is not an event
    loop and keeps its heap; the §VI-D fleet is priced through that
    gateway, not by a simulator of its own), and the names the
    one-pipeline refactor deleted appear nowhere: not in ``src``,
    ``tests``, ``benchmarks`` or ``examples``, and not in the top-level
    documents, ``ROADMAP.md`` among them.  Only the two change records
    exempted below are skipped, since they record what was deleted."""
    heap_users = {
        path.relative_to(REPO / "src" / "repro").as_posix(): [
            line.strip() for line in path.read_text().splitlines()
            if "heapq.heap" in line
        ]
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        if "heapq" in path.read_text()
    }
    assert set(heap_users) == {"serving/reactor.py", "serving/gateway.py"}
    assert all("self._queue" in line for line in heap_users["serving/gateway.py"])

    deleted = re.compile(
        r"ResilientServiceExecutor|ReattachableBundle|SessionDirectory"
        r"|AsyncioReactorAdapter|drive_open_loop|\.bind\("
        # the byte-oracle perf-bench: the second stopwatch and dead symbols
        r"|cProfile|pstats|min[-_]speedup"
        r"|L3PageVault|SwapBusObserver|ServerObserver|default_worker_count"
        # capabilities only their own tests called — whole identifiers,
        # so a test id that merely contains one is not a hit
        r"|\b(?:TokenBucketPolicy|GlobalConcurrencyPolicy|CompositeAdmission"
        r"|RATE_LIMITED|CONCURRENCY_LIMIT|DEADLINE_EXPIRED|default_deadline_us"
        r"|_expire_queued|ShardMetricsExporter|observe_queue_depths"
        r"|partition_sessions|gateway_for|session_counts|queue_depths"
        r"|queued_waits_us|try_assign|owner_of|least_loaded_device"
        r"|backend_for_working_set|active_levels|restore_levels"
        r"|level_geometry|cache_blocks|stash_bytes|per_shard_stash_blocks"
        r"|gauge_max|note_span|note_metric|basic_blocks|decrypt_block"
        r"|get_logs|eth_getLogs|receipts_root|block_bloom|find_logs"
        r"|function_selector|encode_call|repeated_access_correlation"
        r"|assemble_code|inter_arrival_us|CallDepthExceeded|is_precompile"
        # the second §VI-D fleet model and its own event loop
        r"|FleetSimulator|OramServerTimeline|FleetResult|saturation_point"
        r"|run_stats_queries)\b"
        r"|RequestStatus\.(?:EXPIRED|CANCELLED)"
        r"|\bdeadline_us(?:=|: float \| None)"
    )
    sources = [
        path
        for tree in ("src", "tests", "benchmarks", "examples")
        for path in (REPO / tree).rglob("*")
        if path.suffix in (".py", ".md")
    ] + [
        path for path in REPO.glob("*.md")
        if path.name not in ("CHANGES.md", "ISSUE.md")
    ]
    offenders = [
        f"{path.relative_to(REPO)}:{number}: {match.group(0)}"
        for path in sources
        if path != Path(__file__).resolve()
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if (match := deleted.search(line))
    ]
    assert offenders == []


def test_one_crypto_path_and_no_deleted_verify_seam_grows_back():
    """Plain-text grep, like the one above.  A verifier has one method,
    ``verify``, and the names of the deleted numpy tier, batch-verify
    seam, Keccak engine seam, vectorized AES-GCM and its frozen
    reference copy appear nowhere in the code trees.  The channel has
    one crypto path: the tier registry and every setting that chose a
    tier appear nowhere in ``src/repro``, and the one name left, the
    e2e ledger's ``crypto_tier`` stamp, is the OpenSSL path's."""
    from repro.crypto.backend import active_backend

    assert active_backend().name == "hashlib"
    deleted = re.compile(
        r"\b(?:NumpyBackend|precomputed_verifier|batch_verify|ecdsa_verify_many"
        r"|open_batch|_verifier_cache|_ReferenceVerifier"
        r"|VectorKeccakEngine|SpongeKeccakEngine|keccak_numpy|keccak256_many"
        r"|set_keccak_engine|keccak_engine|hash_many|_commit_batched"
        r"|pad_keccak"
        r"|ctr_keystream_many|_rounds_vector|_numpy_tables|ReferenceAesGcm"
        r"|reference_ctr_keystream|_tag_from_ek|repro\.crypto\.gcm)\b"
    )
    offenders = [
        f"{path.relative_to(REPO)}:{number}"
        for tree in ("src", "tests", "benchmarks", "examples")
        for path in (REPO / tree).rglob("*")
        if path.suffix in (".py", ".md") and path != Path(__file__).resolve()
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if deleted.search(line)
    ]
    registry = re.compile(
        r"\b(?:register_backend|available_backends|get_backend|activate\("
        r"|CryptoBackend|HashlibBackend|DEFAULT_BACKEND|UnknownBackendError"
        r"|crypto_backend)"
    )
    offenders += [
        f"{path.relative_to(REPO)}:{number}"
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if registry.search(line)
    ]
    assert offenders == []


def test_keccak_is_called_only_where_the_design_table_says():
    """AST over ``src/repro`` against DESIGN §7.3's call-site table
    (module -> class).  Keccak-256 is called only from the modules the
    table lists, every listed module still calls it or is a protocol-own
    row, and the protocol-own modules (the bundle id, the channel digest)
    import no Keccak at all."""
    design = (REPO / "DESIGN.md").read_text()
    section = design.split("### 7.3 ", 1)[1].split("\n### ", 1)[0]
    table = {
        match.group(1): match.group(2).strip()
        for match in re.finditer(
            r"^\| `([\w/]+\.py)` \|.*\| ([^|]+) \|$", section, re.MULTILINE
        )
    }
    protocol_own = {name for name, kind in table.items() if kind.startswith("protocol-own")}
    assert protocol_own == {"hypervisor/bundle_codec.py", "hypervisor/channel.py"}
    root = REPO / "src" / "repro"
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }

    def calls_keccak(tree) -> bool:
        return any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "keccak256"
            for node in ast.walk(tree)
        )

    callers = {
        name for name, tree in trees.items()
        if name != "crypto/keccak.py" and calls_keccak(tree)
    }
    assert callers == set(table) - protocol_own
    for name in protocol_own:
        imported = [
            entry
            for node in ast.walk(trees[name])
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for entry in [getattr(node, "module", None) or ""]
            + [alias.name for alias in node.names]
        ]
        assert not [entry for entry in imported if "keccak" in entry], name


def test_protocol_sha256_labels_are_prefix_free():
    """Every labelled SHA-256 input in ``src/repro`` starts with a literal
    label; no label is a prefix of another, so two labelled inputs never
    coincide (DESIGN §7.3).  The bundle id and channel digest labels are
    among them."""
    from repro.hypervisor.bundle_codec import BUNDLE_ID_DOMAIN
    from repro.hypervisor.channel import CHANNEL_DIGEST_DOMAIN

    labels = set()
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        labels.update(
            re.findall(r'sha256\(\s*b"([^"]+)"', text)
            + re.findall(r'^\w*DOMAIN = b"([^"]+)"', text, re.MULTILINE)
        )
    # a ``%d`` label is formatted: its literal prefix is what is fixed
    labels = {
        label.split("%")[0].encode().decode("unicode_escape").encode("latin-1")
        for label in labels
    }
    assert {BUNDLE_ID_DOMAIN, CHANNEL_DIGEST_DOMAIN} <= labels
    assert len(labels) >= 10
    clashes = [
        (a, b) for a in labels for b in labels if a != b and b.startswith(a)
    ]
    assert clashes == []


# ----------------------------------------------------------------------
# One ORAM store: each decision keeps its single home
# ----------------------------------------------------------------------

def test_no_assert_statement_in_src():
    """``python -O`` strips every ``assert``, so the ``-O`` CI leg proves
    only that the suite passes without them — not that none guarded
    anything.  In ``src/repro`` a check is a typed raise and a narrowing
    is a restructuring; the grep is ROADMAP 1 (c)'s, docstrings included."""
    offenders = [
        f"{path.relative_to(REPO)}:{number}"
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.match(r"\s*assert ", line)
    ]
    assert offenders == []


def test_one_oram_store_and_no_deleted_seam_grows_back():
    """Plain-text grep over ``src/repro``.  Outside ``repro/oram`` nothing
    reaches into an adapter's private client, prices an access itself or
    constructs a store; the names the one-store refactor deleted appear
    nowhere, ``repro/oram`` included."""
    root = REPO / "src" / "repro"
    rules = {
        # recovery/manager.py's own ``self._client`` field is not an adapter's
        "private client reach-in": (
            re.compile(r"\._client\b"), {"recovery/manager.py"}),
        # the adapter's method is the price; the two model-only callers
        # name the paper-shape constant
        "access priced outside the adapter": (
            re.compile(r"oram_access_us\((?!\*PAPER_ORAM_SHAPE\))"),
            {"hardware/timing.py"}),
        # FaultyOramServer( wraps a store, it does not build one;
        # perf/bench.py builds the byte oracle's client and server itself
        "store built outside repro.oram.store": (
            re.compile(r"\b(PathOramClient|OramServer)\("),
            {"perf/bench.py"}),
    }
    deleted = re.compile(
        r"build_oram_server|KNOWN_ORAM_BACKENDS|PATH_BACKEND|PYRAMID_BACKEND"
        r"|_AnchorConfig|_anchor_config|_FleetServerView|_account_page_keys"
        r"|_last_summary_source|arm_store|on_store_read|backend_for\("
        r"|_slot_body|_initialize_tree|oram_bucket_size|stash_limit_blocks"
        r"|oram_decrypt_memo_blocks|default_backend|ring_seed="
        # the former ORAM cipher's batch path; nothing builds the class
        r"|_xor_keystreams|Blake2Aead\("
        # the sharding plane's pin protocol, crash marking and recovery
        r"|SyncRootCoordinator|PinTicket|PinStats|ShardRecoveryCoordinator"
        r"|ShardAnchor|SoftwareSealingAuthority|_ShardScopedCsu"
        r"|ShardUnavailableError|ShardPinnedError|UnpinnedShardAccessError"
        r"|UnsupportedShardBackendError|mark_crashed|mark_recovered"
        r"|begin_pinned|end_pinned|_active_ticket|self\._crashed\b"
        r"|per_shard_accesses|pin_transaction|_refuse_pinned|shard_for_page"
        r"|shards_for(?:_pages)?\(|attach_client|\bcoordinator="
        # the retired scale-out bench
        r"|ShardBenchConfig|run_shard_bench|repro\.sharding\.bench"
        # the Pyramid store, the recursive position map and the store choice
        r"|PyramidOramClient|HierarchicalOramServer|RecursivePositionMap"
        r"|DirectoryPositionMap|PageDirectory|DictPositionMap|PositionMapLike"
        r"|KIND_NEGATIVE|backend_overrides|recursive_position_map|posmap_key"
        r"|pyramid_cache_blocks|check_backend"
    )
    offenders = []
    paper_shape_users = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if deleted.search(line):
                offenders.append(f"{name}:{number}: deleted name")
            if "(*PAPER_ORAM_SHAPE)" in line:
                paper_shape_users.append(name)
            if name.startswith("oram/"):
                continue
            for rule, (pattern, allowed) in rules.items():
                if name not in allowed and pattern.search(line):
                    offenders.append(f"{name}:{number}: {rule}")
    assert offenders == []
    assert paper_shape_users == ["hardware/fleet.py", "hardware/hevm.py"]
    assert "seal_blocks" not in vars(Blake2Aead)
    manager = (root / "recovery" / "manager.py").read_text()
    assert not re.search(r"(?<!self)\._client\b", manager)
    # Path's dead slot helpers are gone.
    client = (root / "oram" / "client.py").read_text()
    assert not re.search(r"_encrypt_slot|_decrypt_slot|_dummy_slot", client)
    # ...and the slot layout is spelled in ``oram/slot.py`` alone.
    for path in sorted((root / "oram").glob("*.py")):
        if path.name != "slot.py":
            assert not re.search(
                r"plain\[(1:3|3:|67)|ljust\(64", path.read_text()
            ), path.name


# ----------------------------------------------------------------------
# Serve the traffic we have: no capability only its own tests call
# ----------------------------------------------------------------------

# Public names nothing in ``src/repro``, ``benchmarks/`` or ``examples/``
# refers to, kept on purpose.  A key ending in ``/`` or ``.py`` covers a
# whole package or module.  The reasons are the categories of the rule
# in EXPERIMENTS "SURFACE"; anything else without a caller is deleted,
# not listed.
_KEPT_WITHOUT_A_CALLER = {
    "evm/instructions/": "EVM functional completeness: opcode handlers "
                         "are registered by decorator, never called by name",
    "AeDma": "paper artefact (§IV-B A.E.DMA; DESIGN §2)",
    "validate_and_admit": "paper artefact (§IV-B 32-byte header admission)",
    "deployer": "helper the tests of kept behaviour drive (contract creation)",
    "mint_calldata": "helper the tests of kept behaviour drive (ERC-20 workload)",
    "total_supply_calldata": "helper the tests of kept behaviour drive (ERC-20 workload)",
    "reserves_calldata": "helper the tests of kept behaviour drive (DEX workload)",
    "expected_output": "helper the tests of kept behaviour drive (DEX workload)",
}


def test_every_public_name_has_a_caller_or_a_reason_to_stay():
    """AST for the definitions, plain text for the references.  Every
    public module-level function or class in ``src/repro`` is mentioned
    somewhere other than its own definition — elsewhere in
    ``src/repro`` (its own module included: a record type its module
    returns is in use), in ``benchmarks/`` or in ``examples/`` — or sits
    in the keep-list with a reason.  ``tests/`` do not count: a
    capability only its own tests reach is what this guards against."""
    root = REPO / "src" / "repro"
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in sorted(root.rglob("*.py"))
    }
    public: dict[str, set[str]] = {}       # name -> where it is public
    definitions: dict[str, set[str]] = {}  # name -> modules binding it
    for name, text in sources.items():
        package = name.endswith("__init__.py")
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
                if not package and not node.name.startswith("_"):
                    public.setdefault(node.name, set()).add(name)
            elif isinstance(node, ast.Assign):
                bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound = [node.target.id]
            else:
                continue
            for entry in bound:
                definitions.setdefault(entry, set()).add(name)
    callers = {
        path.relative_to(REPO).as_posix(): path.read_text()
        for tree in ("benchmarks", "examples")
        for path in sorted((REPO / tree).rglob("*.py"))
    }

    def mentioned(name: str) -> bool:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if any(word.search(text) for text in callers.values()):
            return True
        return any(
            len(word.findall(text)) > (module in definitions.get(name, ()))
            for module, text in sources.items()
            if not module.endswith("__init__.py")
        )

    def kept(name: str) -> bool:
        return name in _KEPT_WITHOUT_A_CALLER or any(
            module.startswith(key)
            for module in public[name]
            for key in _KEPT_WITHOUT_A_CALLER
            if key.endswith(("/", ".py"))
        )

    orphans = sorted(
        name for name in public if not mentioned(name) and not kept(name)
    )
    assert orphans == []
    # The keep-list holds no entry that has since gained a caller or gone.
    stale = sorted(
        key for key in _KEPT_WITHOUT_A_CALLER
        if not key.endswith(("/", ".py")) and (key not in public or mentioned(key))
    )
    assert stale == []
