"""Tests for the command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
input x[2]
output y
var acc
acc = 0
for i in 0..6 {
    acc = acc + (x[0] + i) * (x[1] + i)
}
if (acc < 500) { y = acc } else { y = 500 }
"""


def reference(a, b):
    acc = sum((a + i) * (b + i) for i in range(6))
    return acc if acc < 500 else 500


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "mul.zr"
    path.write_text(SOURCE)
    return str(path)


class TestProgramFileErrors:
    """A program file that cannot be read or compiled is one ``error:``
    line naming it and exit 2, for every command that loads one."""

    COMMANDS = [
        ["compile"],
        ["prove", "--inputs", "3,4"],
        ["trace", "--inputs", "3,4", "--no-net"],
        ["check"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_missing_file(self, tmp_path, capsys, command):
        missing = str(tmp_path / "nosuch.zr")
        assert main([command[0], missing, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read program {missing}: No such file or directory\n"
        )

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_syntax_error(self, tmp_path, capsys, command):
        path = tmp_path / "bad.zr"
        path.write_text("input x[2]\noutput y\ny = x[0] *\n")
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot compile program {path}: ")
        assert captured.err.count("\n") == 1


class TestCompileCommand:
    def test_prints_stats(self, program_file, capsys):
        assert main(["compile", program_file]) == 0
        out = capsys.readouterr().out
        assert "|u_zaatar|" in out
        assert "hybrid chooser   : zaatar" in out

    def test_field_selection(self, program_file, capsys):
        assert main(["compile", program_file, "--field", "p128"]) == 0
        assert "p128" in capsys.readouterr().out


class TestProveCommand:
    def test_accepts_honest_batch(self, program_file, capsys):
        rc = main(
            [
                "prove",
                program_file,
                "--inputs",
                "3,4",
                "--inputs",
                "5,6",
                "--rho-lin",
                "2",
                "--rho",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"y=[{reference(3, 4)}]  [ACCEPTED]" in out
        assert f"y=[{reference(5, 6)}]  [ACCEPTED]" in out
        assert "prover per instance" in out

    def test_field_without_a_commitment_group_is_error(self, program_file, capsys):
        rc = main(["prove", program_file, "--field", "p192", "--inputs", "3,4"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: field p192 has no commitment group"
        )

    def test_missing_inputs_is_error(self, program_file, capsys):
        assert main(["prove", program_file]) == 2

    def test_malformed_inputs_is_error(self, program_file):
        assert main(["prove", program_file, "--inputs", "1,x"]) == 2

    def test_workers_flag_uses_engine(self, program_file, capsys):
        rc = main(
            ["prove", program_file, "--inputs", "3,4", "--inputs", "5,6",
             "--workers", "2", "--rho-lin", "2", "--rho", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"y=[{reference(3, 4)}]  [ACCEPTED]" in out
        assert "failures: no failures" in out

    def test_failed_instance_is_reported_not_fatal(self, program_file, capsys):
        # wrong arity (program takes 2 inputs): structured failure, and
        # the healthy instance still proves
        rc = main(
            ["prove", program_file, "--inputs", "1", "--inputs", "3,4",
             "--rho-lin", "2", "--rho", "1"]
        )
        assert rc == 1  # not everything accepted — but no crash
        out = capsys.readouterr().out
        assert "FAILED[bad-request]" in out
        assert f"y=[{reference(3, 4)}]  [ACCEPTED]" in out
        assert "failures: 1 failed — bad-request: 1 (instance 0)" in out

    def test_checkpoint_resume(self, program_file, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        args = ["prove", program_file, "--inputs", "3,4", "--inputs", "5,6",
                "--checkpoint", ckpt, "--rho-lin", "2", "--rho", "1"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "engine: 2 resumed from checkpoint" in out

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_is_error(self, program_file, capsys, workers):
        rc = main(
            ["prove", program_file, "--inputs", "3,4", "--workers", workers,
             "--rho-lin", "2", "--rho", "1"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: num_workers must be at least 1, got {workers}\n"

    @pytest.mark.parametrize("flag", ["--rho", "--rho-lin"])
    def test_zero_repetitions_is_error(self, program_file, capsys, flag):
        """One ``error:`` line and exit 2, not a traceback from the
        verifier's set-up."""
        args = {"--rho-lin": "2", "--rho": "1", flag: "0"}
        rc = main(["prove", program_file, "--inputs", "3,4",
                   *[part for item in args.items() for part in item]])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = flag[2:].replace("-", "_")
        assert captured.err == f"error: {name} must be at least 1, got 0\n"

    def test_incompatible_checkpoint_is_error(self, program_file, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        base = ["prove", program_file, "--checkpoint", ckpt,
                "--rho-lin", "2", "--rho", "1"]
        assert main(base + ["--inputs", "3,4"]) == 0
        capsys.readouterr()
        assert main(base + ["--inputs", "7,8"]) == 2
        assert "batch_digest mismatch" in capsys.readouterr().err


class TestTraceCommand:
    def test_traces_program_file(self, program_file, capsys, tmp_path):
        import json

        out_path = tmp_path / "run.trace.jsonl"
        rc = main(
            ["trace", program_file, "--inputs", "3,4", "--no-net",
             "--out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "prover.instance" in out
        assert "verifier.query_setup" in out
        assert "field.mul" in out
        assert "field backend:" in out
        assert "backend." in out  # per-backend kernel counters in the summary
        assert "ACCEPTED" in out
        lines = out_path.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "trace"
        names = {json.loads(l).get("name") for l in lines[1:]}
        assert "prover.solve_constraints" in names

    def test_traces_app_with_net(self, capsys, tmp_path):
        out_path = tmp_path / "matmul.trace.jsonl"
        rc = main(
            ["trace", "--app", "matmul", "--size", "m=2",
             "--out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "net.bytes_sent" in out
        assert out_path.exists()

    def test_telemetry_left_disabled(self, program_file, tmp_path):
        from repro import telemetry

        main(["trace", program_file, "--inputs", "1,1", "--no-net",
              "--out", str(tmp_path / "t.jsonl")])
        assert not telemetry.enabled()

    def test_field_without_a_commitment_group_is_error(
        self, program_file, capsys, tmp_path
    ):
        out_path = tmp_path / "t.jsonl"
        rc = main(["trace", program_file, "--field", "p192", "--inputs", "3,4",
                   "--no-net", "--out", str(out_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: field p192 has no commitment group"
        )
        assert not out_path.exists()

    def test_unknown_app_is_error(self, tmp_path):
        assert main(["trace", "--app", "nope"]) == 2

    def test_no_program_no_app_is_error(self):
        assert main(["trace"]) == 2


class TestMicrobenchCommand:
    def test_prints_parameters(self, capsys):
        rc = main(["microbench", "--reps", "50", "--crypto-reps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        for key in ("e", "d", "h", "f_lazy", "f", "f_div", "c"):
            assert f"{key:7s}:" in out or f"  {key}" in out


class TestServeCommand:
    def test_serves_and_reports_stats(self, program_file, capsys):
        rc = main(["serve", program_file, "--duration", "0.05", "--max-sessions", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving" in out
        assert "max 2 sessions" in out
        assert "sessions: 0 ok" in out

    def test_accepts_remote_session(self, program_file):
        import socket
        import threading

        from repro.argument import ArgumentConfig, RetryPolicy, verify_remote
        from repro.cli import _field, _load_program
        from repro.pcp import SoundnessParams

        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        thread = threading.Thread(
            target=main,
            args=(["serve", program_file, "--port", str(port), "--duration", "5"],),
            daemon=True,
        )
        thread.start()
        program = _load_program(program_file, _field("goldilocks"), 32)
        config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        result = verify_remote(
            program,
            [[3, 4]],
            ("127.0.0.1", port),
            config,
            retry=RetryPolicy(max_attempts=10, base_delay=0.1, seed=0),
        )
        assert result.all_accepted
        assert result.instances[0].output_values == [reference(3, 4)]
        thread.join(timeout=30)


class TestServeGateway:
    @pytest.fixture
    def second_program_file(self, tmp_path):
        path = tmp_path / "square.zr"
        path.write_text("input x\noutput y\ny = x * x\n")
        return str(path)

    def test_gateway_banner_and_stats(
        self, program_file, second_program_file, capsys
    ):
        rc = main(
            [
                "serve",
                program_file,
                "--registry",
                second_program_file,
                "--duration",
                "0.05",
                "--max-sessions",
                "2",
                "--accept-queue",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "gateway on" in out
        assert "2 programs" in out
        assert "max 2 sessions + 4 queued" in out
        assert "mul" in out and "square" in out

    def test_gateway_serves_both_programs(
        self, program_file, second_program_file
    ):
        import socket
        import threading

        from repro.argument import ArgumentConfig, RetryPolicy, verify_remote
        from repro.cli import _field, _load_program
        from repro.pcp import SoundnessParams

        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        thread = threading.Thread(
            target=main,
            args=(
                [
                    "serve",
                    program_file,
                    "--registry",
                    second_program_file,
                    "--port",
                    str(port),
                    "--duration",
                    "5",
                ],
            ),
            daemon=True,
        )
        thread.start()
        field = _field("goldilocks")
        config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        retry = RetryPolicy(max_attempts=10, base_delay=0.1, seed=0)
        mul = _load_program(program_file, field, 32)
        square = _load_program(second_program_file, field, 32)
        r1 = verify_remote(mul, [[3, 4]], ("127.0.0.1", port), config, retry=retry)
        r2 = verify_remote(square, [[9]], ("127.0.0.1", port), config, retry=retry)
        assert r1.all_accepted and r1.instances[0].output_values == [reference(3, 4)]
        assert r2.all_accepted and r2.instances[0].output_values == [81]
        thread.join(timeout=30)


class TestServeSigterm:
    def test_sigterm_stops_the_shards_and_frees_the_port(self, program_file):
        """SIGTERM takes the Ctrl-C path: ``repro serve`` exits 0 after
        stopping its shard workers, which hold the inherited listener,
        so the port binds again."""
        import os
        import signal
        import socket
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro
        from repro.argument import fetch_stats

        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", program_file,
             "--port", str(port), "--shards", "2"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    fetch_stats(("127.0.0.1", port))
                    break
                except OSError:
                    assert proc.poll() is None, "repro serve exited early"
                    assert time.monotonic() < deadline, "repro serve never served"
                    time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            socket.create_server(("127.0.0.1", port)).close()
        finally:
            try:  # whatever a failure left behind, shard workers too
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_field_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["compile", program_file, "--field", "p999"])


class TestTraceJsonAndRemote:
    def test_json_output_is_machine_readable(self, program_file, capsys, tmp_path):
        import json

        rc = main(
            ["trace", program_file, "--inputs", "3,4", "--no-net", "--json",
             "--out", str(tmp_path / "t.jsonl")]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert doc["program"] == "mul"
        assert doc["remote"] is None
        assert len(doc["trace_id"]) == 16
        names = {s["name"] for s in doc["spans"]}
        assert "prover.instance" in names
        assert doc["counter_totals"]["field.mul"] > 0
        assert all(s.get("trace_id") == doc["trace_id"] for s in doc["spans"])

    def test_remote_trace_stitches_server_spans(self, program_file, capsys, tmp_path):
        import json

        from repro.argument import ArgumentConfig, ProverServer
        from repro.cli import _field, _load_program
        from repro.pcp import SoundnessParams

        program = _load_program(program_file, _field("goldilocks"), 32)
        config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        with ProverServer(program, config) as server:
            host, port = server.address
            rc = main(
                ["trace", program_file, "--inputs", "3,4",
                 "--remote", f"{host}:{port}", "--json",
                 "--out", str(tmp_path / "t.jsonl")]
            )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert doc["remote"] == f"{host}:{port}"
        spans = {s["name"]: s for s in doc["spans"]}
        # the server's session span is stitched under the client span
        assert spans["wire.prover_session"]["parent"] == (
            spans["wire.verify_remote"]["id"]
        )
        assert "prover.instance" in spans

    def test_remote_against_dead_server_fails_cleanly(self, program_file, capsys, tmp_path):
        import socket

        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        rc = main(
            ["trace", program_file, "--inputs", "3,4",
             "--remote", f"127.0.0.1:{port}",
             "--out", str(tmp_path / "t.jsonl")]
        )
        assert rc == 1
        assert "remote verification" in capsys.readouterr().err

    def test_bad_remote_address_is_usage_error(self, program_file):
        assert main(["trace", program_file, "--inputs", "1,1",
                     "--remote", "nonsense"]) == 2


class TestTopCommand:
    def test_once_renders_live_stats(self, program_file, capsys):
        from repro.argument import ArgumentConfig, ProverServer, verify_remote
        from repro.cli import _field, _load_program
        from repro.pcp import SoundnessParams

        program = _load_program(program_file, _field("goldilocks"), 32)
        config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        with ProverServer(program, config) as server:
            verify_remote(program, [[3, 4]], server.address, config)
            host, port = server.address
            rc = main(["top", f"{host}:{port}", "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top — mul" in out
        assert "sessions" in out
        assert "started" in out
        assert "p50=" in out and "p99=" in out

    def test_once_against_a_gateway_names_backend_field_and_queue_wait(
        self, program_file, capsys, tmp_path
    ):
        from repro.argument import (
            ArgumentConfig,
            GatewayServer,
            ProgramRegistry,
            verify_remote,
        )
        from repro.cli import _field, _load_program
        from repro.pcp import SoundnessParams

        square_file = tmp_path / "square.zr"
        square_file.write_text("input x\noutput y\ny = x * x\n")
        field = _field("goldilocks")
        config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        program = _load_program(program_file, field, 32)
        registry = ProgramRegistry()
        registry.register(program, config)
        registry.register(_load_program(str(square_file), field, 32), config)
        with GatewayServer(registry) as server:
            verify_remote(program, [[3, 4]], server.address, config)
            host, port = server.address
            rc = main(["top", f"{host}:{port}", "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "queue wait" in out
        assert f"backend {field.backend.name}" in out
        assert f"field {field.name}" in out
        assert "backend ?" not in out and "field ?" not in out

    def test_once_against_a_sharded_gateway_shows_live_shards(
        self, program_file, capsys
    ):
        from repro.argument import ArgumentConfig, GatewayServer, ProgramRegistry
        from repro.cli import _field, _load_program
        from repro.pcp import SoundnessParams

        config = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        registry = ProgramRegistry()
        registry.register(_load_program(program_file, _field("goldilocks"), 32), config)
        with GatewayServer(registry, shards=1) as server:
            host, port = server.address
            rc = main(["top", f"{host}:{port}", "--once"])
        assert rc == 0
        # the gateway's own gauge, not the batch engine's
        assert "shards alive 1" in capsys.readouterr().out

    def test_unreachable_server_is_an_error(self, capsys):
        import socket

        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        assert main(["top", f"127.0.0.1:{port}", "--once"]) == 1
        assert "cannot poll" in capsys.readouterr().err

    def test_bad_address_is_usage_error(self):
        assert main(["top", "nonsense", "--once"]) == 2


class TestServeMetricsPort:
    def test_metrics_endpoint_serves_plaintext(self, program_file, capsys):
        import re
        import socket
        import threading
        import time
        import urllib.request

        placeholder = socket.create_server(("127.0.0.1", 0))
        mport = placeholder.getsockname()[1]
        placeholder.close()
        thread = threading.Thread(
            target=main,
            args=(["serve", program_file, "--duration", "3",
                   "--metrics-port", str(mport)],),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 5
        text = None
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{mport}/", timeout=1
                ) as resp:
                    text = resp.read().decode()
                break
            except OSError:
                time.sleep(0.05)
        thread.join(timeout=30)
        assert text is not None, "metrics endpoint never came up"
        assert re.search(r'repro_server_info\{.*program="mul".*\} 1', text)
        assert "repro_uptime_seconds" in text


class TestBenchCheckCommand:
    @staticmethod
    def _write(tmp_path, name, results):
        import json

        path = tmp_path / name
        path.write_text(json.dumps({
            "figure": "kernels",
            "meta": {"bench_schema": 1, "backend": "numpy"},
            "results": results,
        }))
        return str(path)

    def test_ok_within_tolerance(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", {"ntt": {"speedup": 10.0}})
        cur = self._write(tmp_path, "cur.json", {"ntt": {"speedup": 9.5}})
        assert main(["bench-check", base, cur, "--max-regress", "15%"]) == 0
        assert "bench-check: OK" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", {"ntt": {"speedup": 10.0}})
        cur = self._write(tmp_path, "cur.json", {"ntt": {"speedup": 5.0}})
        assert main(["bench-check", base, cur, "--max-regress", "15%"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION: ntt.speedup" in captured.out
        assert "bench-check: FAILED" in captured.err

    def test_self_diff_is_clean(self, tmp_path):
        base = self._write(tmp_path, "base.json",
                           {"ntt": {"speedup": 10.0, "warm_seconds": 0.4}})
        assert main(["bench-check", base, base]) == 0

    def test_missing_file_is_usage_error(self, tmp_path):
        base = self._write(tmp_path, "base.json", {})
        missing = str(tmp_path / "nope.json")
        assert main(["bench-check", base, missing]) == 2

    def test_bad_tolerance_is_usage_error(self, tmp_path):
        base = self._write(tmp_path, "base.json", {})
        assert main(["bench-check", base, base, "--max-regress", "soon"]) == 2


class TestCheckCommand:
    AGG = [
        "check",
        "--app",
        "private_aggregation",
        "--size",
        "n=2",
        "--size",
        "d=2",
        "--size",
        "value_bits=4",
    ]

    def test_app_passes_and_prints_summary(self, capsys):
        assert main(self.AGG) == 0
        out = capsys.readouterr().out
        assert "private_aggregation: PASS" in out
        assert "check: OK" in out
        assert "mutations" in out

    def test_checks_a_program_file(self, program_file, capsys):
        assert main(["check", program_file, "--random", "3"]) == 0
        out = capsys.readouterr().out
        assert "mul: PASS" in out

    def test_json_report_is_byte_deterministic(self, capsys, tmp_path):
        runs = []
        for i in range(2):
            out_path = tmp_path / f"report{i}.json"
            rc = main(self.AGG + ["--seed", "5", "--json", "--out", str(out_path)])
            assert rc == 0
            runs.append((capsys.readouterr().out, out_path.read_bytes()))
        assert runs[0][0] == runs[1][0]      # identical stdout
        assert runs[0][1] == runs[1][1]      # identical artifact bytes
        import json as json_mod

        document = json_mod.loads(runs[0][0])
        assert document["passed"] is True
        assert document["seed"] == 5
        assert document["counter_totals"]["check.inputs"] > 0
        report = document["programs"]["private_aggregation"]
        assert report["mutations"]["kill_rate"] == 1.0

    def test_different_seed_changes_the_report(self, capsys):
        outputs = []
        for seed in ("5", "6"):
            assert main(self.AGG + ["--seed", seed, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    def test_no_mutations_flag(self, capsys):
        assert main(self.AGG + ["--no-mutations"]) == 0
        out = capsys.readouterr().out
        assert "mutations" not in out.split("\n")[0]

    def test_unknown_app_is_usage_error(self, capsys):
        assert main(["check", "--app", "nope"]) == 2
        assert "unknown app" in capsys.readouterr().err

    def test_no_program_no_app_is_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert "provide a program path or --app" in capsys.readouterr().err

    def test_bad_size_is_usage_error(self):
        assert main(["check", "--app", "matmul", "--size", "m"]) == 2

    def test_telemetry_left_disabled(self):
        from repro import telemetry

        assert main(self.AGG) == 0
        assert not telemetry.enabled()
