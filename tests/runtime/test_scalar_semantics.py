"""Scalar-tier semantics: scoping, coercion, arithmetic, control flow.

These pin the sequential interpreter's observable behaviour — where a
name resolves, what an assignment stores, which error a fault raises and
what state it leaves behind — independently of how the interpreter is
implemented.  Every program runs with ``engine="tree"`` so no vector
tier can mask a scalar-tier change.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError, MissingTransferError
from repro.faults import ResiliencePolicy
from repro.runtime.executor import Machine, run_program


def run(src, engine="tree", **kwargs):
    return run_program(src, engine=engine, **kwargs)


class TestShadowing:
    def test_nested_block_shadows_and_restores(self):
        result = run("""
        void main() {
            int x = 1;
            {
                int x = 2;
                inner = x;
                {
                    x = 5;
                    deeper = x;
                }
                after_assign = x;
            }
            outer = x;
        }
        """)
        assert result.scalar("inner") == 2
        assert result.scalar("deeper") == 5
        assert result.scalar("after_assign") == 5
        assert result.scalar("outer") == 1

    def test_for_init_shadows_enclosing_name(self):
        result = run("""
        void main() {
            int i = 100;
            int s = 0;
            for (int i = 0; i < 4; i++) {
                s = s + i;
            }
            after = i;
            total = s;
        }
        """)
        assert result.scalar("total") == 6
        assert result.scalar("after") == 100

    def test_assignment_init_writes_through(self):
        result = run("""
        void main() {
            int i = 100;
            for (i = 0; i < 4; i++) { }
            after = i;
        }
        """)
        assert result.scalar("after") == 4

    def test_init_reads_the_outer_binding(self):
        result = run("""
        void main() {
            int x = 3;
            {
                int x = x + 1;
                inner = x;
            }
            outer = x;
        }
        """)
        assert result.scalar("inner") == 4
        assert result.scalar("outer") == 3

    def test_use_before_inner_declaration_sees_outer(self):
        result = run("""
        void main() {
            int x = 7;
            {
                before = x;
                int x = 8;
                later = x;
            }
        }
        """)
        assert result.scalar("before") == 7
        assert result.scalar("later") == 8

    def test_loop_body_declaration_is_fresh_each_trip(self):
        with pytest.raises(ExecutionError, match="'t' used uninitialized"):
            run("""
            void main() {
                for (int i = 0; i < 2; i++) {
                    int t;
                    if (i == 0) { t = 1; }
                    s = t;
                }
            }
            """)


class TestConditionalDeclarations:
    """Declarations that run only on some paths bind in the enclosing
    scope once they have run, and not before."""

    def test_bare_if_arm_declares_in_enclosing_block(self):
        result = run("void main() { int c = 1; if (c) int x = 5; y = x; }")
        assert result.scalar("y") == 5

    def test_untaken_arm_leaves_outer_binding_visible(self):
        result = run("""
        void main() {
            int x = 2;
            {
                int c = 0;
                if (c) int x = 5;
                y = x;
                x = 9;
            }
            w = x;
        }
        """)
        assert result.scalar("y") == 2
        assert result.scalar("w") == 9

    def test_untaken_arm_with_no_outer_binding(self):
        with pytest.raises(ExecutionError, match="undefined variable 'x'"):
            run("void main() { int c = 0; if (c) int x = 5; y = x; }")

    def test_scalar_out_clause_declares_for_the_rest_of_the_block(self):
        src = """
        void main() {
            for (int r = 0; r < 2; r++) {
                if (r == 1) { again = s; }
        #pragma offload target(mic:0) in(n) in(r) out(s)
                { s = n * 2 + r; }
                seen = s;
            }
        }
        """
        machine = Machine()
        with pytest.raises(ExecutionError, match="undefined variable 's'"):
            run(src, scalars={"n": 4}, machine=machine)
        assert machine.host.scalars["seen"] == 8
        assert "again" not in machine.host.scalars


class TestNames:
    def test_uninitialized_read_message(self):
        with pytest.raises(ExecutionError) as info:
            run("void main() { int x; y = x + 1; }")
        assert str(info.value) == "variable 'x' used uninitialized"

    def test_undefined_name_message(self):
        with pytest.raises(ExecutionError) as info:
            run("void main() { y = nope + 1; }")
        assert str(info.value) == "undefined variable 'nope'"

    def test_undeclared_assignment_lands_in_host_scalars(self):
        result = run("""
        void set_it() { from_func = 9; }
        void main() {
            { { fresh = 4; } }
            set_it();
            again = fresh + from_func;
        }
        """)
        assert result.host.scalars["fresh"] == 4
        assert result.host.scalars["from_func"] == 9
        assert result.host.scalars["again"] == 13

    def test_function_body_does_not_see_caller_locals(self):
        with pytest.raises(ExecutionError, match="undefined variable 'k'"):
            run("""
            int peek() { return k; }
            void main() { int k = 1; v = peek(); }
            """)

    def test_function_sees_host_globals(self):
        result = run(
            """
            int peek() { return g * 2; }
            void main() { v = peek(); }
            """,
            scalars={"g": 21},
        )
        assert result.scalar("v") == 42

    def test_host_root_prefers_arrays_over_scalars(self):
        result = run(
            "void main() { v = A[1]; }",
            arrays={"A": np.array([1.0, 2.0])},
            scalars={"A": 5},
        )
        assert result.scalar("v") == 2.0


class TestCoercion:
    def test_assignment_to_int_local_truncates(self):
        result = run("void main() { int x = 1; x = 2.7; y = x; z = -x; }")
        assert result.scalar("y") == 2
        assert isinstance(result.scalar("y"), int)

    def test_assignment_to_int_host_scalar_truncates(self):
        result = run("void main() { k = 2.5; }", scalars={"k": 5})
        assert result.scalar("k") == 2
        assert isinstance(result.scalar("k"), int)

    def test_float_binding_is_not_coerced(self):
        result = run("void main() { float f = 1; g = f; f = 3; h = f; }")
        assert isinstance(result.scalar("g"), float)
        assert result.scalar("h") == 3
        assert isinstance(result.scalar("h"), int)

    def test_compound_assignment_on_int(self):
        result = run("void main() { int x = 7; x *= 1.5; y = x; }")
        assert result.scalar("y") == 10


class TestArithmetic:
    def test_c_style_division_and_modulo(self):
        result = run("""
        void main() {
            a = -7 / 2; b = 7 / -2; c = -7 / -2;
            d = -7 % 2; e = 7 % -2; f = -7 % -2;
        }
        """)
        assert [result.scalar(k) for k in "abcdef"] == [-3, -3, 3, -1, 1, -1]

    def test_int_division_by_zero(self):
        machine = Machine()
        with pytest.raises(ZeroDivisionError):
            run("void main() { a = 5; b = a / 0; c = 1; }", machine=machine)
        assert machine.host.scalars == {"a": 5}

    def test_int_modulo_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            run("void main() { a = 5 % 0; }")

    def test_float_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            run("void main() { a = 1.0 / 0.0; }")

    def test_division_by_zero_keeps_partial_array_writes(self):
        A = np.zeros(4)
        with pytest.raises(ZeroDivisionError):
            run(
                """
                void main() {
                    for (int i = 0; i < 4; i++) { A[i] = 8 / (2 - i); }
                }
                """,
                arrays={"A": A},
            )
        assert A.tolist() == [4.0, 8.0, 0.0, 0.0]


class TestControlFlow:
    def test_break_and_continue_in_nested_loops(self):
        result = run("""
        void main() {
            int s = 0;
            for (int i = 0; i < 4; i++) {
                int j = 0;
                while (1) {
                    j = j + 1;
                    if (j > 3) { break; }
                    if (j == 2) { continue; }
                    int k = 0;
                    do {
                        k = k + 1;
                        if (k == 2) { continue; }
                        if (k == 4) { break; }
                        s = s + 1;
                    } while (k < 10);
                }
                if (i == 2) { continue; }
                s = s + 100;
            }
            total = s;
        }
        """)
        # Per (i, j in {1, 3}): k = 1, 3 count -> 2; 4 * 2 * 2 = 16.
        assert result.scalar("total") == 16 + 300

    def test_return_from_nested_loops(self):
        result = run("""
        int find(int target) {
            for (int i = 0; i < 10; i++) {
                int j = 0;
                while (j < 10) {
                    do {
                        if (i * 10 + j == target) { return i * 100 + j; }
                    } while (0);
                    j++;
                }
            }
            return -1;
        }
        void main() { a = find(37); b = find(200); }
        """)
        assert result.scalar("a") == 307
        assert result.scalar("b") == -1

    def test_do_while_runs_once(self):
        result = run("void main() { int n = 0; do { n = n + 1; } while (0); m = n; }")
        assert result.scalar("m") == 1

    def test_loop_control_is_uncharged(self):
        result = run("""
        void main() {
            int s = 0;
            for (int i = 0; i < 4; i++) { s = s + 1; }
            int j = 0;
            while (j < 4) { j = j + 1; }
        }
        """)
        ops = result.stats.ops
        assert ops.int_ops == 8
        assert ops.branches == 4


class TestRecursion:
    def test_each_call_gets_a_fresh_frame(self):
        result = run("""
        int f(int n) {
            int local = n;
            if (n > 0) {
                int r = f(n - 1);
                return local * 10 + r;
            }
            return 0;
        }
        void main() { v = f(3); }
        """)
        assert result.scalar("v") == 60

    def test_mutual_recursion(self):
        result = run("""
        int is_odd(int n);
        int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
        void main() { a = is_even(10); b = is_odd(7); }
        """)
        assert result.scalar("a") == 1
        assert result.scalar("b") == 1


DEVICE_READS_HOST_LOCAL = """
void main() {
    int k = 3;
#pragma offload target(mic:0) in(n) out(B : length(n))
    {
        for (int i = 0; i < n; i++) { B[i] = k; }
    }
}
"""


class TestDeviceScope:
    def test_untransferred_host_local_raises(self):
        with pytest.raises(MissingTransferError) as info:
            run(
                DEVICE_READS_HOST_LOCAL,
                arrays={"B": np.zeros(4)},
                scalars={"n": 4},
            )
        assert "'k'" in str(info.value)
        assert "never transferred" in str(info.value)

    def test_function_called_on_device_resolves_on_device(self):
        src = """
        float scale_by() { return g; }
        void main() {
        #pragma offload target(mic:0) in(n) out(B : length(n))
            {
                for (int i = 0; i < n; i++) { B[i] = scale_by(); }
            }
        }
        """
        with pytest.raises(MissingTransferError, match="'g'"):
            run(src, arrays={"B": np.zeros(4)}, scalars={"n": 4, "g": 2.0})

    def test_transferred_local_is_visible(self):
        result = run(
            DEVICE_READS_HOST_LOCAL.replace("in(n)", "in(n) in(k)"),
            arrays={"B": np.zeros(4)},
            scalars={"n": 4},
        )
        assert result.array("B").tolist() == [3.0] * 4


class TestHostFallback:
    SRC = """
    void main() {
        int k = 3;
    #pragma offload target(mic:0) in(A : length(n)) in(k) in(n) out(B : length(n))
        {
            k = k + 1;
            for (int i = 0; i < n; i++) {
                B[i] = A[i] * k;
                A[i] = -1.0;
            }
            seen = k;
        }
        after = k;
    }
    """

    def test_oom_runs_body_in_host_scope_and_restores_inputs(self):
        n = 64
        A = np.arange(n, dtype=np.float64)
        B = np.zeros(n)
        machine = Machine(
            scale=1e9,
            resilience=ResiliencePolicy(demote_on_oom=False),
        )
        result = run(
            self.SRC,
            arrays={"A": A, "B": B},
            scalars={"n": n},
            machine=machine,
        )
        assert machine.fault_stats.host_fallbacks == 1
        assert result.array("B").tolist() == (np.arange(n) * 4.0).tolist()
        # In-only data comes back as it went in: the array is restored
        # and the in-only local is reset in the enclosing host scope.
        assert result.array("A").tolist() == np.arange(n).tolist()
        assert result.scalar("seen") == 4
        assert result.scalar("after") == 3
        assert result.stats.kernel_launches == 0
