"""Closure-compiling execution backend (the code-generation half of
Section 4.4).

The paper's artifact is a compiler: crash avoidance, loop bounds and
fault injection are *generated into the code*.  This backend mirrors
that: each method body is translated once into a tree of Python closures
(dispatch, name resolution and constant folding happen at compile time),
and execution runs the closures.  Semantics are identical to
:class:`repro.runtime.interpreter.Interpreter` — the compiler reuses its
error handling, builtin, injection and device machinery — and the test
suite verifies output equality differentially on every benchmark.

Typical speedup over the tree-walking interpreter: 2–4× (see
``benchmarks/test_backend_comparison.py``).

One runner serves many runs: :meth:`Interpreter.reset` readies it for
the next, keeping what it compiled.  A run can also continue from an
event-loop iteration boundary (:meth:`CompiledRunner.resume`), which is
what checkpointed injection trials (:mod:`repro.runtime.checkpoint`)
build on.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.lang import ast
from repro.lang.symtab import BuiltinCall, MethodCall
from repro.runtime.devices import InputExhausted
from repro.runtime.interpreter import (
    Interpreter,
    SJavaRuntimeError,
    _BreakSignal,
    _ContinueSignal,
    _Frame,
    _ReturnSignal,
    _to_display,
)
from repro.runtime.values import ArrayVal, BufferVal, default_value

ExprFn = Callable[[_Frame], object]
StmtFn = Callable[[_Frame], None]


class CompiledRunner(Interpreter):
    """Drop-in replacement for :class:`Interpreter` that pre-compiles
    every reachable method body into closures."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._compiled: dict[tuple[str, str], StmtFn] = {}
        self._resume_steps: Optional[list[StmtFn]] = None
        #: Called with the event-loop frame at the top of every pass of
        #: the event loop, before its condition is charged and evaluated
        #: (an iteration boundary); checkpointed trials take and compare
        #: snapshots here.  It survives :meth:`reset`.
        self.boundary: Optional[Callable[[_Frame], None]] = None

    # -- overridden execution entry points ---------------------------------

    def call_method(self, receiver, static_class, method_name, args):
        dispatch_class = (
            receiver.class_name if hasattr(receiver, "class_name") else static_class
        )
        found = self.info.find_method(dispatch_class, method_name)
        if found is None:
            found = self.info.find_method(static_class, method_name)
        if found is None:
            raise SJavaRuntimeError(
                f"no method {method_name!r} on class {dispatch_class!r}"
            )
        owner, decl = found
        body = self._compiled_body(owner, decl)
        frame = _Frame(this=receiver)
        for param, arg in zip(decl.params, args):
            frame.vars[param.name] = arg
        try:
            body(frame)
        except _ReturnSignal as signal:
            return signal.value
        return None

    def resumable(self) -> bool:
        """True when the event loop is a top-level statement of its
        method, so a run can continue from a frame saved at one of its
        iteration boundaries (see :meth:`resume`)."""
        return self._loop_index() is not None

    def resume(self, frame: _Frame) -> None:
        """Continue a run from an iteration boundary: the event loop on
        the restored ``frame``, then the statements after it.  The
        engine's own state (iteration, statics, sink, device) must have
        been restored first."""
        if self._resume_steps is None:
            stmts = self.info.event_loop.method.body.stmts
            self._resume_steps = [
                self.compile_stmt(stmt) for stmt in stmts[self._loop_index():]
            ]
        try:
            for step in self._resume_steps:
                step(frame)
        except _ReturnSignal:
            pass

    def _loop_index(self) -> Optional[int]:
        loop = self.info.event_loop
        if loop is None:
            return None
        for index, stmt in enumerate(loop.method.body.stmts):
            if stmt is loop.loop:
                return index
        return None

    def _compiled_body(self, owner: str, decl: ast.MethodDecl) -> StmtFn:
        key = (owner, decl.name)
        cached = self._compiled.get(key)
        if cached is None:
            cached = self.compile_stmt(decl.body)
            self._compiled[key] = cached
        return cached

    # -- statement compilation ------------------------------------------------

    def compile_stmt(self, stmt: ast.Stmt) -> StmtFn:
        if isinstance(stmt, ast.Block):
            steps = [self.compile_stmt(s) for s in stmt.stmts]
            if len(steps) == 1:
                return steps[0]

            def run_block(frame: _Frame) -> None:
                for step in steps:
                    step(frame)

            return run_block
        if isinstance(stmt, ast.VarDecl):
            return self._compile_var_decl(stmt)
        if isinstance(stmt, ast.Assign):
            return self._compile_assign(stmt)
        if isinstance(stmt, ast.If):
            return self._compile_if(stmt)
        if isinstance(stmt, ast.While):
            if stmt.label in ("SSJAVA", "SJAVA"):
                return self._compile_event_loop(stmt)
            return self._compile_while(stmt)
        if isinstance(stmt, ast.For):
            return self._compile_for(stmt)
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                def run_return_void(frame: _Frame) -> None:
                    raise _ReturnSignal(None)

                return run_return_void
            value = self.compile_expr(stmt.value)

            def run_return(frame: _Frame) -> None:
                raise _ReturnSignal(value(frame))

            return run_return
        if isinstance(stmt, ast.Break):
            def run_break(frame: _Frame) -> None:
                raise _BreakSignal()

            return run_break
        if isinstance(stmt, ast.Continue):
            def run_continue(frame: _Frame) -> None:
                raise _ContinueSignal()

            return run_continue
        if isinstance(stmt, ast.ExprStmt):
            expr = self.compile_expr(stmt.expr)

            def run_expr(frame: _Frame) -> None:
                expr(frame)

            return run_expr
        raise SJavaRuntimeError(f"unhandled statement {type(stmt).__name__}", stmt)

    def _compile_var_decl(self, stmt: ast.VarDecl) -> StmtFn:
        name = stmt.name
        if stmt.init is None:
            default = default_value(stmt.decl_type)

            def run_default(frame: _Frame) -> None:
                frame.vars[name] = default

            return run_default
        init = self.compile_expr(stmt.init)
        inject = self._inject

        def run_decl(frame: _Frame) -> None:
            frame.vars[name] = inject(init(frame), stmt)

        return run_decl

    def _compile_assign(self, stmt: ast.Assign) -> StmtFn:
        value = self.compile_expr(stmt.value)
        inject = self._inject
        if stmt.op != "=":
            current = self.compile_expr(stmt.target)
            op = stmt.op[0]
            binary = self._binary_op
            raw_value = value

            def value(frame: _Frame) -> object:  # noqa: F811
                return binary(op, current(frame), raw_value(frame), stmt)

        target = stmt.target
        if isinstance(target, ast.VarRef):
            name = target.name

            def run_var(frame: _Frame) -> None:
                frame.vars[name] = inject(value(frame), stmt)

            return run_var
        if isinstance(target, ast.FieldAccess):
            obj = self.compile_expr(target.obj)
            field_name = target.field_name
            null_error = self._null_error

            def run_field(frame: _Frame) -> None:
                receiver = obj(frame)
                result = inject(value(frame), stmt)
                if receiver is None:
                    null_error("field store on null reference", target)
                    return
                receiver.fields[field_name] = result

            return run_field
        if isinstance(target, ast.ArrayAccess):
            array = self.compile_expr(target.array)
            index = self.compile_expr(target.index)
            bounds_error = self._bounds_error
            null_error = self._null_error

            def run_array(frame: _Frame) -> None:
                arr = array(frame)
                i = index(frame)
                result = inject(value(frame), stmt)
                if arr is None:
                    null_error("array store on null reference", target)
                    return
                if not 0 <= i < len(arr.items):
                    bounds_error(i, len(arr.items), target)
                    return
                arr.items[i] = result

            return run_array
        raise SJavaRuntimeError("invalid assignment target", stmt)

    def _compile_if(self, stmt: ast.If) -> StmtFn:
        cond = self.compile_expr(stmt.cond)
        then_body = self.compile_stmt(stmt.then_body)
        else_body = (
            self.compile_stmt(stmt.else_body) if stmt.else_body is not None else None
        )

        def run_if(frame: _Frame) -> None:
            if cond(frame):
                then_body(frame)
            elif else_body is not None:
                else_body(frame)

        return run_if

    def _compile_event_loop(self, stmt: ast.While) -> StmtFn:
        cond = self.compile_expr(stmt.cond)
        body = self.compile_stmt(stmt.body)
        charge = self._charge

        def run_loop(frame: _Frame) -> None:
            begin_device_iteration = getattr(
                self.device, "begin_iteration", None
            )
            while self.iteration < self.options.max_iterations:
                if self.boundary is not None:
                    self.boundary(frame)
                charge()
                if not cond(frame):
                    break
                if begin_device_iteration is not None:
                    begin_device_iteration(self.iteration)
                if self.injector is not None:
                    self.injector.begin_iteration(self.iteration)
                try:
                    body(frame)
                except InputExhausted:
                    break
                except _BreakSignal:
                    self.iteration += 1
                    self.iteration_marks.append(len(self.sink.values))
                    self._iteration_event()
                    break
                except _ContinueSignal:
                    pass
                self.iteration += 1
                self.iteration_marks.append(len(self.sink.values))
                self._iteration_event()

        return run_loop

    def _compile_while(self, stmt: ast.While) -> StmtFn:
        cond = self.compile_expr(stmt.cond)
        body = self.compile_stmt(stmt.body)
        # Looked up per loop run: a reset may change the options.
        loop_bound = self._loop_bound
        annotations = stmt.annotations
        exceed = self._exceed_bound
        charge = self._charge

        def run_while(frame: _Frame) -> None:
            bound = loop_bound(annotations)
            count = 0
            while cond(frame):
                charge()
                if count >= bound:
                    exceed(stmt)
                    break
                count += 1
                try:
                    body(frame)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue

        return run_while

    def _compile_for(self, stmt: ast.For) -> StmtFn:
        init = self.compile_stmt(stmt.init) if stmt.init is not None else None
        cond = self.compile_expr(stmt.cond) if stmt.cond is not None else None
        update = self.compile_stmt(stmt.update) if stmt.update is not None else None
        body = self.compile_stmt(stmt.body)
        # Looked up per loop run: a reset may change the options.
        loop_bound = self._loop_bound
        annotations = stmt.annotations
        exceed = self._exceed_bound
        charge = self._charge

        def run_for(frame: _Frame) -> None:
            bound = loop_bound(annotations)
            if init is not None:
                init(frame)
            count = 0
            while cond is None or cond(frame):
                charge()
                if count >= bound:
                    exceed(stmt)
                    break
                count += 1
                try:
                    body(frame)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if update is not None:
                    update(frame)

        return run_for

    # -- expression compilation ----------------------------------------------------

    def compile_expr(self, expr: ast.Expr) -> ExprFn:
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.StringLit)):
            value = expr.value
            return lambda frame: value
        if isinstance(expr, ast.NullLit):
            return lambda frame: None
        if isinstance(expr, ast.VarRef):
            name = expr.name

            def read_var(frame: _Frame) -> object:
                try:
                    return frame.vars[name]
                except KeyError:
                    raise SJavaRuntimeError(
                        f"unbound variable {name!r}", expr
                    ) from None

            return read_var
        if isinstance(expr, ast.ThisRef):
            return lambda frame: frame.this
        if isinstance(expr, ast.FieldAccess):
            return self._compile_field_access(expr)
        if isinstance(expr, ast.ArrayAccess):
            return self._compile_array_access(expr)
        if isinstance(expr, ast.ArrayLength):
            array = self.compile_expr(expr.array)
            null_error = self._null_error

            def read_length(frame: _Frame) -> object:
                arr = array(frame)
                if arr is None:
                    null_error("length of null array", expr)
                    return 0
                return len(arr.items)

            return read_length
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr)
        if isinstance(expr, ast.New):
            return self._compile_new(expr)
        if isinstance(expr, ast.NewArray):
            size = self.compile_expr(expr.size)
            default = default_value(expr.element)
            return lambda frame: ArrayVal(max(0, size(frame)), default)
        raise SJavaRuntimeError(f"unhandled expression {type(expr).__name__}", expr)

    def _compile_field_access(self, expr: ast.FieldAccess) -> ExprFn:
        resolved = self.info.field_refs.get(expr.uid)
        if resolved is not None and resolved[1].is_static:
            owner, decl = resolved
            static_value = self._static_value
            name = expr.field_name
            return lambda frame: static_value(owner, name)
        obj = self.compile_expr(expr.obj)
        field_name = expr.field_name
        null_error = self._null_error
        field_default = (
            default_value(resolved[1].decl_type) if resolved is not None else None
        )

        def read_field(frame: _Frame) -> object:
            receiver = obj(frame)
            if receiver is None:
                null_error("field read on null reference", expr)
                return field_default
            return receiver.fields[field_name]

        return read_field

    def _compile_array_access(self, expr: ast.ArrayAccess) -> ExprFn:
        array = self.compile_expr(expr.array)
        index = self.compile_expr(expr.index)
        bounds_error = self._bounds_error
        null_error = self._null_error

        def read_element(frame: _Frame) -> object:
            arr = array(frame)
            i = index(frame)
            if arr is None:
                null_error("array read on null reference", expr)
                return 0
            if not 0 <= i < len(arr.items):
                bounds_error(i, len(arr.items), expr)
                return arr.default
            return arr.items[i]

        return read_element

    def _compile_unary(self, expr: ast.Unary) -> ExprFn:
        operand = self.compile_expr(expr.operand)
        if expr.op == "-":
            return lambda frame: -operand(frame)
        if expr.op == "!":
            return lambda frame: not operand(frame)
        if expr.op.startswith("cast:"):
            target = expr.op.split(":", 1)[1]
            if target == "int":
                return lambda frame: int(operand(frame))
            if target == "float":
                return lambda frame: float(operand(frame))
        raise SJavaRuntimeError(f"unknown unary operator {expr.op!r}", expr)

    def _compile_binary(self, expr: ast.Binary) -> ExprFn:
        op = expr.op
        if op == "&&":
            left = self.compile_expr(expr.left)
            right = self.compile_expr(expr.right)
            return lambda frame: bool(left(frame)) and bool(right(frame))
        if op == "||":
            left = self.compile_expr(expr.left)
            right = self.compile_expr(expr.right)
            return lambda frame: bool(left(frame)) or bool(right(frame))
        left = self.compile_expr(expr.left)
        right = self.compile_expr(expr.right)
        if op in ("+", "-", "*", "/", "%"):
            binary = self._binary_op
            inject = self._inject
            # ``-`` and ``*`` need none of _binary_op's special cases
            # (string concatenation, division by zero, Java rounding).
            if op == "-":
                return lambda frame: inject(left(frame) - right(frame), expr)
            if op == "*":
                return lambda frame: inject(left(frame) * right(frame), expr)

            def run_arith(frame: _Frame) -> object:
                return inject(binary(op, left(frame), right(frame), expr), expr)

            return run_arith
        if op == "<":
            return lambda frame: left(frame) < right(frame)
        if op == ">":
            return lambda frame: left(frame) > right(frame)
        if op == "<=":
            return lambda frame: left(frame) <= right(frame)
        if op == ">=":
            return lambda frame: left(frame) >= right(frame)
        eq_impl = self._compile_equality(left, right, op)
        if eq_impl is not None:
            return eq_impl
        raise SJavaRuntimeError(f"unknown binary operator {op!r}", expr)

    @staticmethod
    def _compile_equality(left: ExprFn, right: ExprFn, op: str) -> Optional[ExprFn]:
        from repro.runtime.interpreter import _both_refs

        if op == "==":
            def run_eq(frame: _Frame) -> object:
                a, b = left(frame), right(frame)
                return a is b if _both_refs(a, b) else a == b

            return run_eq
        if op == "!=":
            def run_ne(frame: _Frame) -> object:
                a, b = left(frame), right(frame)
                return a is not b if _both_refs(a, b) else a != b

            return run_ne
        return None

    def _compile_new(self, expr: ast.New) -> ExprFn:
        if expr.class_name in ("OrderedBuffer", "OrderedIntBuffer"):
            capacity = self.compile_expr(expr.args[0])
            default = 0.0 if expr.class_name == "OrderedBuffer" else 0
            return lambda frame: BufferVal(max(0, capacity(frame)), default)
        class_name = expr.class_name
        instantiate = self.instantiate
        return lambda frame: instantiate(class_name)

    # -- calls ------------------------------------------------------------------------

    def _compile_call(self, call: ast.Call) -> ExprFn:
        target = self.info.call_targets.get(call.uid)
        if isinstance(target, BuiltinCall):
            return self._compile_builtin(call, target)
        if isinstance(target, MethodCall):
            return self._compile_user_call(call, target)
        raise SJavaRuntimeError(f"unresolved call {call.method!r}", call)

    def _compile_builtin(self, call: ast.Call, target: BuiltinCall) -> ExprFn:
        namespace = target.namespace
        name = target.sig.name
        args = [self.compile_expr(arg) for arg in call.args]
        if namespace == "Device":
            # Late-bound: a reset gives the engine a fresh device.
            return lambda frame: self.device.read(name)
        if namespace == "SJ":
            if target.sig.kind == "output":
                emit = self.sink.emit
                arg0 = args[0]

                def run_emit(frame: _Frame) -> object:
                    emit(arg0(frame))
                    return None

                return run_emit
            if name == "toStr":
                arg0 = args[0]
                return lambda frame: _to_display(arg0(frame))
            if name == "fill":
                array, value = args
                null_error = self._null_error

                def run_fill(frame: _Frame) -> object:
                    arr = array(frame)
                    v = value(frame)
                    if arr is None:
                        null_error("SJ.fill on null array", call)
                        return None
                    arr.items[:] = [v] * len(arr.items)
                    return None

                return run_fill
        if namespace == "Math":
            eval_math = self._eval_math
            return lambda frame: eval_math(name, [a(frame) for a in args], call)
        if namespace in ("OrderedBuffer", "OrderedIntBuffer"):
            receiver = self.compile_expr(call.receiver)
            return self._compile_buffer_method(call, name, receiver, args)
        raise SJavaRuntimeError(f"unhandled builtin {namespace}.{name}", call)

    def _compile_buffer_method(
        self, call: ast.Call, name: str, receiver: ExprFn, args: list[ExprFn]
    ) -> ExprFn:
        null_error = self._null_error
        bounds_error = self._bounds_error
        if name == "insert":
            arg0 = args[0]

            def run_insert(frame: _Frame) -> object:
                buf = receiver(frame)
                value = arg0(frame)
                if buf is None:
                    null_error("insert on null buffer", call)
                    return None
                buf.insert(value)
                return None

            return run_insert
        if name == "get":
            arg0 = args[0]

            def run_get(frame: _Frame) -> object:
                buf = receiver(frame)
                if buf is None:
                    null_error("get on null buffer", call)
                    return 0
                i = arg0(frame)
                if not 0 <= i < buf.size():
                    bounds_error(i, buf.size(), call)
                    return buf.default
                return buf.get(i)

            return run_get

        def run_size(frame: _Frame) -> object:
            buf = receiver(frame)
            if buf is None:
                null_error("size on null buffer", call)
                return 0
            return buf.size()

        return run_size

    def _compile_user_call(self, call: ast.Call, target: MethodCall) -> ExprFn:
        args = [self.compile_expr(arg) for arg in call.args]
        call_method = self.call_method
        receiver_class = target.receiver_class
        method_name = target.decl.name
        if target.decl.is_static:
            def run_static(frame: _Frame) -> object:
                return call_method(
                    None, receiver_class, method_name, [a(frame) for a in args]
                )

            return run_static
        if call.receiver is None or (
            isinstance(call.receiver, ast.VarRef)
            and call.receiver.name in self.info.classes
        ):
            def run_implicit(frame: _Frame) -> object:
                return call_method(
                    frame.this, receiver_class, method_name,
                    [a(frame) for a in args],
                )

            return run_implicit
        receiver = self.compile_expr(call.receiver)
        null_error = self._null_error
        instantiate = self.instantiate

        def run_call(frame: _Frame) -> object:
            obj = receiver(frame)
            if obj is None:
                null_error(f"call of {method_name!r} on null receiver", call)
                if not self.options.ignore_errors:
                    return None
                obj = instantiate(receiver_class)
            return call_method(
                obj, receiver_class, method_name, [a(frame) for a in args]
            )

        return run_call
