//===- ASTPrinter.cpp - Render an AST back to source text -----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "lang/ASTPrinter.h"

#include "lang/AST.h"
#include "support/ErrorHandling.h"

#include <sstream>

using namespace tangram;
using namespace tangram::lang;

namespace {

class PrinterImpl {
public:
  explicit PrinterImpl(std::ostringstream &OS) : OS(OS) {}

  void printExpr(const Expr *E) {
    switch (E->getKind()) {
    case Stmt::Kind::IntLiteral:
      OS << cast<IntLiteralExpr>(E)->getValue();
      return;
    case Stmt::Kind::FloatLiteral:
      OS << cast<FloatLiteralExpr>(E)->getValue();
      return;
    case Stmt::Kind::DeclRef:
      OS << cast<DeclRefExpr>(E)->getName();
      return;
    case Stmt::Kind::Paren:
      OS << '(';
      printExpr(cast<ParenExpr>(E)->getSubExpr());
      OS << ')';
      return;
    case Stmt::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      OS << getUnaryOpSpelling(U->getOp());
      printExpr(U->getSubExpr());
      return;
    }
    case Stmt::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      printExpr(B->getLHS());
      OS << ' ' << getBinaryOpSpelling(B->getOp()) << ' ';
      printExpr(B->getRHS());
      return;
    }
    case Stmt::Kind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      printExpr(C->getCond());
      OS << " ? ";
      printExpr(C->getTrueExpr());
      OS << " : ";
      printExpr(C->getFalseExpr());
      return;
    }
    case Stmt::Kind::Call: {
      const auto *C = cast<CallExpr>(E);
      OS << C->getCallee() << '(';
      printArgs(C->getArgs());
      OS << ')';
      return;
    }
    case Stmt::Kind::MemberCall: {
      const auto *M = cast<MemberCallExpr>(E);
      printExpr(M->getBase());
      OS << '.' << M->getMember() << '(';
      printArgs(M->getArgs());
      OS << ')';
      return;
    }
    case Stmt::Kind::Index: {
      const auto *I = cast<IndexExpr>(E);
      printExpr(I->getBase());
      OS << '[';
      printExpr(I->getIndex());
      OS << ']';
      return;
    }
    default:
      tgr_unreachable("not an expression kind");
    }
  }

  void printVarDecl(const VarDecl *Var) {
    const VarQualifiers &Q = Var->getQualifiers();
    if (Q.Shared)
      OS << "__shared ";
    if (Q.HasAtomic)
      OS << "_atomic" << getReduceOpName(Q.Atomic) << ' ';
    if (Q.Tunable)
      OS << "__tunable ";
    OS << Var->getType()->getString() << ' ' << Var->getName();
    if (Var->getArraySize()) {
      OS << '[';
      printExpr(Var->getArraySize());
      OS << ']';
    }
    if (Var->getInit()) {
      OS << " = ";
      printExpr(Var->getInit());
    } else if (Var->hasCtorForm()) {
      OS << '(';
      printArgs(Var->getCtorArgs());
      OS << ')';
    }
  }

  void printStmt(const Stmt *S, unsigned Indent) {
    if (const auto *E = dyn_cast<Expr>(S)) {
      indent(Indent);
      printExpr(E);
      OS << ";\n";
      return;
    }
    switch (S->getKind()) {
    case Stmt::Kind::Compound: {
      indent(Indent);
      OS << "{\n";
      for (const Stmt *Child : cast<CompoundStmt>(S)->getBody())
        printStmt(Child, Indent + 1);
      indent(Indent);
      OS << "}\n";
      return;
    }
    case Stmt::Kind::DeclStmt: {
      indent(Indent);
      printVarDecl(cast<DeclStmt>(S)->getVar());
      OS << ";\n";
      return;
    }
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      indent(Indent);
      OS << "for (";
      if (const Stmt *Init = F->getInit()) {
        if (const auto *D = dyn_cast<DeclStmt>(Init))
          printVarDecl(D->getVar());
        else
          printExpr(cast<Expr>(Init));
      }
      OS << "; ";
      if (F->getCond())
        printExpr(F->getCond());
      OS << "; ";
      if (F->getInc())
        printExpr(F->getInc());
      OS << ")\n";
      printNestedBody(F->getBody(), Indent);
      return;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      indent(Indent);
      OS << "if (";
      printExpr(I->getCond());
      OS << ")\n";
      printNestedBody(I->getThen(), Indent);
      if (I->getElse()) {
        indent(Indent);
        OS << "else\n";
        printNestedBody(I->getElse(), Indent);
      }
      return;
    }
    case Stmt::Kind::Return: {
      indent(Indent);
      OS << "return";
      if (const Expr *V = cast<ReturnStmt>(S)->getValue()) {
        OS << ' ';
        printExpr(V);
      }
      OS << ";\n";
      return;
    }
    default:
      tgr_unreachable("unknown statement kind");
    }
  }

  void printCodelet(const CodeletDecl *C) {
    OS << "__codelet ";
    if (C->isCoopQualified())
      OS << "__coop ";
    if (!C->getTag().empty())
      OS << "__tag(" << C->getTag() << ") ";
    OS << C->getReturnType()->getString() << ' ' << C->getName() << '(';
    bool First = true;
    for (const ParamDecl *P : C->getParams()) {
      if (!First)
        OS << ", ";
      First = false;
      OS << P->getType()->getString() << ' ' << P->getName();
    }
    OS << ")\n";
    printStmt(C->getBody(), 0);
  }

private:
  void printArgs(const std::vector<Expr *> &Args) {
    bool First = true;
    for (const Expr *Arg : Args) {
      if (!First)
        OS << ", ";
      First = false;
      printExpr(Arg);
    }
  }

  void printNestedBody(const Stmt *Body, unsigned Indent) {
    printStmt(Body, isa<CompoundStmt>(Body) ? Indent : Indent + 1);
  }

  void indent(unsigned Levels) {
    for (unsigned I = 0; I != Levels; ++I)
      OS << "  ";
  }

  std::ostringstream &OS;
};

} // namespace

std::string tangram::lang::printExpr(const Expr *E) {
  std::ostringstream OS;
  PrinterImpl(OS).printExpr(E);
  return OS.str();
}

std::string tangram::lang::printStmt(const Stmt *S, unsigned Indent) {
  std::ostringstream OS;
  PrinterImpl(OS).printStmt(S, Indent);
  return OS.str();
}

std::string tangram::lang::printCodelet(const CodeletDecl *C) {
  std::ostringstream OS;
  PrinterImpl(OS).printCodelet(C);
  return OS.str();
}

std::string tangram::lang::printTranslationUnit(const TranslationUnit &TU) {
  std::string Result;
  for (const CodeletDecl *C : TU.Codelets) {
    if (!Result.empty())
      Result += "\n";
    Result += printCodelet(C);
  }
  return Result;
}
