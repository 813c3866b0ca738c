"""FaultInjector: deterministic arrivals, actions, and corruption."""

import errno
import json
import os
import subprocess
import sys

import pytest

from repro import faults
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture(autouse=True)
def _disarmed():
    faults.uninstall()
    yield
    faults.uninstall()


class TestArrivalCounting:
    def test_fire_counts_and_triggers_on_nth(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(site="s", action="raise", nth=3))
        )
        injector.fire("s")
        injector.fire("s")
        with pytest.raises(InjectedFault):
            injector.fire("s")
        injector.fire("s")  # past the window: inert again
        assert injector.arrivals("s") == 4

    def test_sites_count_independently(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(site="a", action="raise", nth=2))
        )
        injector.fire("b")
        injector.fire("a")
        with pytest.raises(InjectedFault):
            injector.fire("a")

    def test_armed_reports_without_executing(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(site="s", action="crash", nth=2))
        )
        assert not injector.armed("s")
        assert injector.armed("s")  # would have been os._exit if executed
        assert not injector.armed("s")


class TestControlActions:
    def test_oserror_defaults_to_enospc(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(site="s", action="oserror"))
        )
        with pytest.raises(OSError) as info:
            injector.fire("s")
        assert info.value.errno == errno.ENOSPC

    def test_oserror_arg_picks_the_errno(self):
        injector = FaultInjector(
            FaultPlan.of(
                FaultSpec(site="s", action="oserror", arg=errno.EROFS)
            )
        )
        with pytest.raises(OSError) as info:
            injector.fire("s")
        assert info.value.errno == errno.EROFS


class TestDataActions:
    def test_truncate_shortens(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(site="s", action="truncate"))
        )
        data = b"x" * 100
        assert len(injector.mutate("s", data)) < len(data)

    def test_truncate_arg_keeps_exact_prefix(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(site="s", action="truncate", arg=7))
        )
        assert injector.mutate("s", b"0123456789") == b"0123456"

    def test_bitflip_changes_exactly_one_bit(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(site="s", action="bitflip"))
        )
        data = bytes(32)
        flipped = injector.mutate("s", data)
        assert len(flipped) == len(data)
        assert sum(bin(b).count("1") for b in flipped) == 1

    def test_same_plan_corrupts_identically(self):
        plan = FaultPlan.of(
            FaultSpec(site="s", action="bitflip", arg=4), seed=7
        )
        data = bytes(range(256))
        first = FaultInjector(plan).mutate("s", data)
        second = FaultInjector(plan).mutate("s", data)
        assert first == second != data

    def test_corrupt_file_mutates_in_place(self, tmp_path):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(site="s", action="truncate", arg=3))
        )
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"0123456789")
        injector.corrupt_file("s", target)
        assert target.read_bytes() == b"012"

    def test_unarmed_hooks_are_pass_through(self, tmp_path):
        injector = FaultInjector(FaultPlan.of())
        assert injector.mutate("s", b"data") == b"data"
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"data")
        injector.corrupt_file("s", target)
        assert target.read_bytes() == b"data"


class TestGlobalInstall:
    def test_module_hooks_inert_without_a_plan(self):
        faults.fire("anything")
        assert faults.mutate("anything", b"data") == b"data"
        assert not faults.armed("anything")
        assert faults.active_injector() is None

    def test_install_arms_process_and_environment(self):
        plan = FaultPlan.of(FaultSpec(site="s", action="raise"))
        faults.install(plan)
        assert os.environ[faults.FAULTS_ENV] == plan.to_json()
        with pytest.raises(InjectedFault):
            faults.fire("s")
        faults.uninstall()
        assert faults.FAULTS_ENV not in os.environ
        faults.fire("s")  # disarmed: inert

    def test_child_process_resolves_plan_from_environment(self):
        plan = FaultPlan.of(FaultSpec(site="child.site", action="raise"))
        env = dict(os.environ)
        env[faults.FAULTS_ENV] = plan.to_json()
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")]
        )
        script = (
            "from repro import faults\n"
            "from repro.faults import InjectedFault\n"
            "try:\n"
            "    faults.fire('child.site')\n"
            "    print('missed')\n"
            "except InjectedFault:\n"
            "    print('fired')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "fired"

    def test_invalid_environment_plan_is_ignored_with_warning(self):
        env = dict(os.environ)
        env[faults.FAULTS_ENV] = "{broken json"
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")]
        )
        script = (
            "from repro import faults\n"
            "faults.fire('anything')\n"
            "print('survived')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "survived"
        assert "ignoring invalid" in result.stderr

    def test_crash_action_hard_kills_a_process(self):
        plan = FaultPlan.of(FaultSpec(site="boom", action="crash"))
        env = dict(os.environ)
        env[faults.FAULTS_ENV] = plan.to_json()
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro import faults; faults.fire('boom'); print('alive')",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == faults.CRASH_EXIT_CODE
        assert "alive" not in result.stdout


def test_plan_json_is_compact_single_line():
    plan = FaultPlan.of(
        FaultSpec(site="s", action="bitflip", nth=2, count=3, arg=1), seed=9
    )
    body = plan.to_json()
    assert "\n" not in body
    assert json.loads(body)["seed"] == 9
