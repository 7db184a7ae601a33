import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scene_memory.py"


def test_script_reports_one_line_for_a_small_set(capsys):
    spec = importlib.util.spec_from_file_location("scene_memory_script", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(["--scenes", "2", "--image-size", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    # two 16-px float32 rasters are 6 KB, 0.0 MiB to one decimal
    found = re.fullmatch(r"scenes=2 image_size=16 dtype=float32: \d+\.\d{3} ms/scene, "
                         r"images 0\.0 MiB, peak RSS (\d+\.\d) MB before the build, "
                         r"(\d+\.\d) MB after", lines[0])
    assert found, lines[0]
    before, after = map(float, found.groups())
    assert 0.0 < before <= after


def test_script_exits_quietly_into_a_closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader left before the script printed anything
    src = str(SCRIPT.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run([sys.executable, str(SCRIPT), "--scenes", "2", "--image-size", "16"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
